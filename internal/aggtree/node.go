// Package aggtree implements FLeet's hierarchical aggregation tier: edge
// nodes that stand between leaf workers and the parameter server (or
// another edge — tiers stack), so the root sees O(fan-in) pushes per
// window instead of O(workers × rounds). One server owning the whole
// fleet is the hard ceiling on scale; the paper's update pipeline
// (admission → staleness scaling → window aggregation) is associative per
// window, which makes a tree the natural scale-out.
//
// A Node implements service.Service, so leaf workers — and every
// transport and interceptor in the system — run against it unchanged:
//
//	leaf ─▶ Node.RequestTask   local admission chain, model served from
//	                           the edge's cached upstream snapshot
//	leaf ─▶ Node.PushGradient  local pipeline stages + window aggregator;
//	                           every K-th push drains the window and
//	                           forwards ONE aggregated direction upstream
//
// Both leaf paths run through internal/ingress, the serving core the edge
// shares with the root server. What is the edge's own is the drain sink —
// forwarding each window's K-sum upstream instead of applying it — plus
// the window metadata, the upstream pulls and announce absorption that
// keep its cached model current.
//
// The upstream push carries Contributing — how many leaf gradients the
// direction sums — so Equation 3's K-sum magnitude is preserved
// end-to-end: for the mean path the tree is bit-for-bit equivalent to a
// flat topology (see TestTreeMeanEquivalentToFlat).
//
// Model distribution runs the other way: the edge caches the upstream
// model as an immutable snapshot, refreshes it by delta pull after each
// upstream window push (or by absorbing upstream stream announces —
// AbsorbUpstreamAnnounce), and relays every refresh downstream as a
// {version, epoch, sparse-delta} announce (OnAnnounce), composing
// multi-step jumps into one exact v→v+k patch.
//
// Epoch conflicts cascade through the tier instead of value-poisoning
// edge caches: a root restart (incarnation epoch bump) makes the edge's
// next upstream push fail with version_conflict, the edge drops its
// snapshot and re-pulls full, and every leaf push still carrying the old
// epoch is then rejected by the edge the same way — the leaves resync
// with the ordinary worker protocol, never knowing how tall the tree is.
package aggtree

import (
	"context"
	"sync"
	"sync/atomic"

	"fleet/internal/ingress"
	"fleet/internal/iprof"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/pipeline"
	"fleet/internal/protocol"
	"fleet/internal/sched"
	"fleet/internal/service"
)

// Config parameterizes an edge-aggregator node.
type Config struct {
	// Upstream is the service this edge pulls models from and pushes
	// aggregated window directions to: the root server, or another edge.
	Upstream service.Service
	// Arch is the model architecture; it must match the upstream's.
	Arch nn.Arch
	// Algorithm is the local aggregation rule (typically AdaSGD), used by
	// the default pipeline's staleness stage and for label absorption.
	// Never share an instance with the upstream server — its staleness
	// history is tier-local state.
	Algorithm learning.Algorithm
	// K is the local window: leaf gradients aggregated per upstream push
	// (default 1 — pure relay with per-push forwarding).
	K int
	// Pipeline, when non-nil, replaces the edge's update pipeline (the
	// same composable stages + window aggregator as server.Config). When
	// nil the default is a staleness stage wrapping Algorithm in front of
	// a sharded mean window with Shards stripes. Stateful: one per node.
	Pipeline *pipeline.Pipeline
	// Shards stripes the default mean window (ignored when Pipeline set).
	Shards int
	// Admission, when non-nil, is the local task-admission chain — edge
	// nodes make admission decisions without a round trip to the root.
	// Nil admits everything at DefaultBatchSize.
	Admission sched.AdmissionPolicy
	// TimeProfiler and EnergyProfiler, when set, absorb the measured task
	// costs leaf pushes report, exactly as the server's do — profiling
	// lives at the tier that admits.
	TimeProfiler   *iprof.IProf
	EnergyProfiler *iprof.IProf
	// DefaultBatchSize seeds the admission chain (default 100).
	DefaultBatchSize int
	// DeltaHistory is how many recent upstream versions the edge keeps
	// exact sparse deltas for, to serve version-aware leaf pulls and
	// relay announces. Default 4; negative disables.
	DeltaHistory int
	// ID is the worker ID this edge identifies as upstream.
	ID int
}

// windowPush is one drained window ready to forward upstream.
type windowPush struct {
	vec          []float64
	contributing int
	batch        int
	labels       []int
	staleMin     int
	staleMax     int
}

// Node is one edge aggregator. All exported methods are safe for
// concurrent use.
type Node struct {
	cfg Config
	// core is the ingress shared with the root server: admission, push
	// validation and staleness scaling, and the cached upstream model it
	// serves — published in the upstream's (version, epoch) clock, so the
	// edge is transparent: leaves cache exactly the coordinates the root
	// minted, and epoch conflicts propagate without translation. No
	// snapshot until the first sync.
	core *ingress.Core

	// mu guards the local window state and the push tally. An empty
	// window has winContrib == 0.
	mu          sync.Mutex
	tally       ingress.Tally
	winContrib  int
	winBatch    int
	winLabels   []int
	winStaleMin int
	winStaleMax int

	// upMu serializes every upstream exchange (sync, window forward,
	// refresh) and so every snapshot publication. Lock order mu →
	// (unlock) → upMu: the window drain captures under mu and forwards
	// after release.
	upMu sync.Mutex

	// relayHook observes every snapshot refresh as a downstream announce
	// (OnAnnounce); the stream transport broadcasts from it.
	relayHook atomic.Pointer[func(protocol.ModelAnnounce)]

	// needRefresh marks the cache behind upstream (a missed or unabsorbed
	// announce); the next upstream exchange repairs it.
	needRefresh atomic.Bool

	upstreamPushes    atomic.Int64
	upstreamConflicts atomic.Int64
	resyncs           atomic.Int64
	lostWindows       atomic.Int64
}

var _ service.Service = (*Node)(nil)

// New builds an edge node. The upstream model is pulled lazily on first
// use; call Sync to fail fast at boot instead.
func New(cfg Config) (*Node, error) {
	if cfg.Upstream == nil {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument, "aggtree: Upstream is required")
	}
	core, err := ingress.New("aggtree", ingress.Config{
		Arch:             cfg.Arch,
		Algorithm:        cfg.Algorithm,
		K:                cfg.K,
		Shards:           cfg.Shards,
		Pipeline:         cfg.Pipeline,
		Admission:        cfg.Admission,
		TimeProfiler:     cfg.TimeProfiler,
		EnergyProfiler:   cfg.EnergyProfiler,
		DefaultBatchSize: cfg.DefaultBatchSize,
		DeltaHistory:     cfg.DeltaHistory,
	})
	if err != nil {
		return nil, err
	}
	return &Node{cfg: cfg, core: core}, nil
}

// Sync pulls the upstream model now (full), so a booting edge can refuse to
// serve instead of failing its first leaf. Idempotent once synced; the
// leaf-serving paths call it to perform the first pull lazily.
func (n *Node) Sync(ctx context.Context) error {
	if n.core.Snapshot() != nil {
		return nil
	}
	n.upMu.Lock()
	defer n.upMu.Unlock()
	if n.core.Snapshot() != nil {
		return nil
	}
	return n.pullLocked(ctx, false)
}

// RequestTask implements service.Service for leaf workers: the local
// admission chain decides, and the model is served from the edge's cached
// upstream snapshot — full, or as a sparse delta against a version the
// edge's history retains. The accept path is lock-free and O(1) in the
// model size, exactly like the root's (see ingress.Core.RequestTask).
func (n *Node) RequestTask(ctx context.Context, req *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	if err := n.Sync(ctx); err != nil {
		return nil, err
	}
	return n.core.RequestTask(ctx, req)
}

// PushGradient implements service.Service for leaf workers: the gradient
// runs the local pipeline (staleness scaling against the edge's cached
// clock, DP, filters) into the window aggregator (see
// ingress.Core.Ingest); every K-th accepted push drains the window and
// forwards the single summed direction upstream, weighted by the count of
// contributing leaf gradients.
//
// The leaf's ack never depends on the upstream exchange: by the time the
// window forwards, this gradient is committed locally — an upstream
// failure discards the window (counted, like a drain error) rather than
// inviting a leaf retry that would double-contribute.
func (n *Node) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	if err := n.Sync(ctx); err != nil {
		return nil, err
	}
	g, err := n.core.Ingest(ctx, push)
	if err != nil {
		return nil, err
	}
	staleness := g.Meta.Staleness

	// A push from a stacked sub-tier already aggregates Contributing leaf
	// gradients; count its weight and fold its staleness bounds in.
	contrib := ingress.Contributing(push)
	sMin, sMax := staleness, staleness
	if push.Contributing > 0 {
		sMin = min(sMin, push.StalenessMin)
		sMax = max(sMax, push.StalenessMax)
	}

	var up *windowPush
	n.mu.Lock()
	if n.winContrib == 0 {
		n.winStaleMin, n.winStaleMax = sMin, sMax
		n.winLabels = make([]int, n.cfg.Arch.Classes())
	} else {
		n.winStaleMin = min(n.winStaleMin, sMin)
		n.winStaleMax = max(n.winStaleMax, sMax)
	}
	n.winContrib += contrib
	n.winBatch += push.BatchSize
	for i, c := range push.LabelCounts {
		n.winLabels[i] += c
	}
	if n.tally.Commit(staleness, contrib, n.core.K()) {
		up = n.takeWindowLocked()
	}
	n.mu.Unlock()

	if up != nil {
		// The window holds other leaves' acked gradients too: its forward
		// must not die with this leaf's context (a committed push
		// completes, as at the root).
		n.forwardWindow(context.WithoutCancel(ctx), up)
	}
	// The edge's clock after the push — refreshed when this push completed
	// a window that advanced the upstream model, mirroring the root's ack.
	return &protocol.PushAck{
		Applied:    true,
		Staleness:  staleness,
		Scale:      g.Scale,
		NewVersion: n.core.Snapshot().Version,
	}, nil
}

// takeWindowLocked drains the local aggregator into one summed direction
// and captures the window's metadata for the upstream push, resetting the
// window state. Callers hold n.mu. A drain failure (a window the rule
// rejects) discards the window — the leaves were acked, so there is no
// addressee; it is counted in drainErrors.
func (n *Node) takeWindowLocked() *windowPush {
	direction := make([]float64, n.core.ParamCount())
	err := n.core.Pipeline().Drain(func(dir []float64) {
		for i, v := range dir {
			direction[i] += v
		}
	})
	up := &windowPush{
		vec:          direction,
		contributing: n.winContrib,
		batch:        n.winBatch,
		labels:       n.winLabels,
		staleMin:     n.winStaleMin,
		staleMax:     n.winStaleMax,
	}
	n.winContrib = 0
	n.winBatch = 0
	n.winLabels = nil
	if err != nil {
		n.tally.DrainErrors++
		return nil
	}
	if up.contributing == 0 {
		return nil // concurrent Flush already took this window
	}
	return up
}

// forwardWindow pushes one drained window direction upstream and refreshes
// the cached model from the ack. An upstream version_conflict is the epoch
// cascade's first domino: the window is lost (its leaves were acked — the
// same invariant as a drain error), the edge re-pulls full onto the new
// incarnation, and subsequent leaf pushes conflict locally until the
// leaves resync too.
func (n *Node) forwardWindow(ctx context.Context, w *windowPush) {
	n.upMu.Lock()
	defer n.upMu.Unlock()
	cur := n.core.Snapshot()
	push := &protocol.GradientPush{
		WorkerID:     n.cfg.ID,
		DeviceModel:  "aggtree-edge",
		ModelVersion: cur.Version,
		ModelEpoch:   cur.Epoch,
		Gradient:     w.vec,
		BatchSize:    w.batch,
		LabelCounts:  w.labels,
		Contributing: w.contributing,
		StalenessMin: w.staleMin,
		StalenessMax: w.staleMax,
	}
	ack, err := n.cfg.Upstream.PushGradient(ctx, push)
	if err != nil {
		n.lostWindows.Add(1)
		if protocol.IsCode(err, protocol.CodeVersionConflict) {
			n.upstreamConflicts.Add(1)
			if rerr := n.pullLocked(ctx, false); rerr == nil {
				n.resyncs.Add(1)
			}
		}
		return
	}
	n.upstreamPushes.Add(1)
	if ack.NewVersion > cur.Version || n.needRefresh.Swap(false) {
		// The upstream model moved (this window may have completed the
		// upstream window, or announces were missed): refresh by delta.
		_ = n.pullLocked(ctx, true)
	}
}

// Flush drains a partial local window upstream — the shutdown path, so a
// terminating edge does not strand acked leaf gradients. No-op when the
// window is empty.
func (n *Node) Flush(ctx context.Context) error {
	var up *windowPush
	n.mu.Lock()
	if n.tally.TakePartial() {
		up = n.takeWindowLocked()
	}
	n.mu.Unlock()
	if up != nil {
		n.forwardWindow(ctx, up)
	}
	return nil
}

// pullLocked performs one upstream model pull — delta-aware against the
// current snapshot when delta is true, full otherwise — and publishes the
// result. Callers hold n.upMu.
func (n *Node) pullLocked(ctx context.Context, delta bool) error {
	cur := n.core.Snapshot()
	req := &protocol.TaskRequest{WorkerID: n.cfg.ID, DeviceModel: "aggtree-edge"}
	if delta && cur != nil {
		req.WantDelta = true
		req.KnownVersion = cur.Version
		req.KnownEpoch = cur.Epoch
	}
	resp, err := n.cfg.Upstream.RequestTask(ctx, req)
	if err != nil {
		return protocol.AsError(err)
	}
	if !resp.Accepted {
		return protocol.Errorf(protocol.CodeUnavailable,
			"aggtree: upstream declined model pull: %s", resp.Reason)
	}
	var params []float64
	switch {
	case resp.ParamsDelta != nil:
		if cur == nil || resp.DeltaBase != cur.Version || resp.ServerEpoch != cur.Epoch {
			return protocol.Errorf(protocol.CodeInternal,
				"aggtree: upstream delta from (version %d, epoch %d), cache at (%d, %d)",
				resp.DeltaBase, resp.ServerEpoch, cur.Version, cur.Epoch)
		}
		params = make([]float64, len(cur.Params))
		copy(params, cur.Params)
		if err := resp.ParamsDelta.Patch(params); err != nil {
			return protocol.AsError(err)
		}
	case len(resp.Params) == n.core.ParamCount():
		// In-process upstreams hand out their immutable snapshot storage;
		// the edge never mutates it, so sharing is safe (and what keeps
		// the tree's pull path O(1) in the model size).
		params = resp.Params
	default:
		return protocol.Errorf(protocol.CodeInternal,
			"aggtree: upstream served %d params, architecture needs %d", len(resp.Params), n.core.ParamCount())
	}
	n.publishLocked(resp.ModelVersion, resp.ServerEpoch, params)
	return nil
}

// publishLocked installs a new cached snapshot and relays the refresh
// downstream as an announce. Callers hold n.upMu. An epoch change relays a
// delta-less announce, which subscribed leaves ignore until their next
// push conflicts.
func (n *Node) publishLocked(version int, epoch int64, params []float64) {
	ann, ok := n.core.Publish(version, epoch, params)
	if !ok {
		return
	}
	if fn := n.relayHook.Load(); fn != nil {
		(*fn)(ann)
	}
}

// AbsorbUpstreamAnnounce folds one upstream model announcement into the
// cached snapshot — the streaming-transport wiring: subscribe the edge's
// upstream stream.Client with this as OnAnnounce, and the refresh (plus
// the downstream relay) happens without a pull round trip. It is strictly
// RPC-free: only a delta chaining exactly onto the cache applies; anything
// else — epoch change, chain gap, delta-less drain — flags the cache for
// repair at the next upstream exchange. Returns whether the announce was
// absorbed. Full half-precision announces (ModelAnnounce.ParamsF16) are
// deliberately not absorbed here: the edge's cache is a delta base for its
// own leaves, so quantized params would poison downstream patches — it
// takes the needRefresh path and repairs with an exact pull instead
// (absorbing f16 and re-announcing exactly is a follow-on).
func (n *Node) AbsorbUpstreamAnnounce(ann protocol.ModelAnnounce) bool {
	if !n.upMu.TryLock() {
		// An upstream exchange is in flight — possibly on this very
		// goroutine (an in-process upstream delivers its announce hook
		// inside the push that drained). That exchange sees the new
		// version in its ack and refreshes; just flag it.
		n.needRefresh.Store(true)
		return false
	}
	defer n.upMu.Unlock()
	cur := n.core.Snapshot()
	if cur == nil {
		return false // not synced yet; the lazy first pull fetches current
	}
	if ann.ServerEpoch != cur.Epoch {
		n.needRefresh.Store(true)
		return false
	}
	if ann.ModelVersion <= cur.Version {
		return false // stale or duplicate
	}
	if ann.Delta == nil || ann.DeltaBase != cur.Version {
		n.needRefresh.Store(true)
		return false
	}
	params := make([]float64, len(cur.Params))
	copy(params, cur.Params)
	if err := ann.Delta.Patch(params); err != nil {
		n.needRefresh.Store(true)
		return false
	}
	n.publishLocked(ann.ModelVersion, ann.ServerEpoch, params)
	return true
}

// OnAnnounce registers fn to observe every downstream relay announce: the
// edge's model refreshes, each carried as {version, epoch, sparse delta}
// in the upstream's coordinates. The stream transport broadcasts to
// subscribed leaf sessions from it. fn runs on the goroutine that
// refreshed (a forwarding push, or the upstream announce loop); keep it
// non-blocking. A nil fn unregisters.
func (n *Node) OnAnnounce(fn func(protocol.ModelAnnounce)) {
	if fn == nil {
		n.relayHook.Store(nil)
		return
	}
	n.relayHook.Store(&fn)
}

// Version returns the cached upstream model clock (0, 0 before first sync).
func (n *Node) Version() (version int, epoch int64) {
	if s := n.core.Snapshot(); s != nil {
		return s.Version, s.Epoch
	}
	return 0, 0
}

// UpstreamPushes returns how many window directions were forwarded.
func (n *Node) UpstreamPushes() int64 { return n.upstreamPushes.Load() }

// UpstreamConflicts returns how many forwards the upstream rejected as
// version_conflict (each costs the window and triggers an edge resync).
func (n *Node) UpstreamConflicts() int64 { return n.upstreamConflicts.Load() }

// Resyncs returns how many full re-pulls recovered from an upstream
// incarnation change.
func (n *Node) Resyncs() int64 { return n.resyncs.Load() }

// LostWindows returns how many drained windows failed to land upstream
// (conflicts included); their leaf gradients were acked and are gone —
// the tree analogue of Stats.DrainErrors.
func (n *Node) LostWindows() int64 { return n.lostWindows.Load() }

// Stats implements service.Service with edge-local diagnostics: the cached
// model clock, the local pipeline/admission composition, and the tier's
// own push counters. GradientsIn counts pushes into this edge;
// LeafGradients the individual worker gradients they represent.
func (n *Node) Stats(ctx context.Context) (*protocol.Stats, error) {
	st, err := n.core.Stats(ctx)
	if err != nil {
		return nil, err
	}
	n.mu.Lock()
	n.tally.Fill(st)
	n.mu.Unlock()
	st.DrainErrors += int(n.lostWindows.Load())
	return st, nil
}

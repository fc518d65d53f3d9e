// Package ingress is the serving core FLeet's root server
// (internal/server) and its edge aggregators (internal/aggtree) share. A
// node of either role does the same two jobs for every device:
//
//   - Task admission (RequestTask): label validation, the admission chain
//     (I-Prof batch sizing, the similarity controller, quotas — see
//     internal/sched), per-policy reject counters, and serving the model
//     from an immutable snapshot behind an atomic pointer — the empty
//     delta, a delta precomputed at publication, or a full pull.
//   - Gradient ingress (Ingest): payload decode, batch and label
//     validation, the I-Prof feed, similarity, the epoch and future-version
//     gates, the update pipeline's stages (AdaSGD staleness damping first)
//     with the sparse scatter fast path, label absorption, and the window
//     Add.
//
// The roles differ only in what happens to a full K-window — the drain
// sink. The root applies it to its model and publishes the next snapshot;
// the edge forwards the window's K-sum upstream and publishes whatever
// model the upstream serves back. Both publish through Publish, which
// owns the sparse delta history, so version-aware pulls and announce
// deltas are computed in one place.
package ingress

import (
	"context"
	"sync"
	"sync/atomic"

	"fleet/internal/compress"
	"fleet/internal/iprof"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/pipeline"
	"fleet/internal/protocol"
	"fleet/internal/sched"
	"fleet/internal/simrand"
)

// Config is what both roles configure the shared core with; zero fields
// take the defaults New documents.
type Config struct {
	// Arch is the served architecture; requests are validated against its
	// parameter count and classes without any lock.
	Arch nn.Arch
	// Algorithm observes every accepted gradient's staleness and weighs
	// its label absorption; the default pipeline's staleness stage wraps
	// it. Required.
	Algorithm learning.Algorithm
	// K is the window: accepted gradients per drain (default 1).
	K int
	// Shards stripes the default mean window (default 1; ignored when
	// Pipeline is set).
	Shards int
	// Pipeline is the update pipeline; nil builds the default staleness
	// stage in front of a Shards-striped mean window.
	Pipeline *pipeline.Pipeline
	// Admission is the task-admission chain; nil admits everything at
	// DefaultBatchSize.
	Admission sched.AdmissionPolicy
	// TimeProfiler and EnergyProfiler absorb the task costs pushes report.
	TimeProfiler   *iprof.IProf
	EnergyProfiler *iprof.IProf
	// DefaultBatchSize seeds the admission chain (default 100, the
	// paper's mini-batch size).
	DefaultBatchSize int
	// DeltaHistory is how many superseded versions keep exact sparse
	// deltas for version-aware pulls (default 4; negative disables).
	DeltaHistory int
}

// Snapshot is one immutable published model state. Params is shared with
// every TaskResponse served from it and must never be written after
// publication.
type Snapshot struct {
	Version int
	// Epoch is the incarnation Version belongs to: the same version
	// number names different parameters across a root restart, so deltas
	// and gradients only ever match within one epoch.
	Epoch  int64
	Params []float64
	// deltas maps an older version v to the exact sparse difference
	// params(v) → Params, when sparse enough to be worth the wire; the
	// absence of an entry means "serve a full pull".
	deltas map[int]*compress.Sparse
}

// histEntry retains a superseded snapshot's params for delta precompute.
type histEntry struct {
	version int
	params  []float64 // shared with the snapshot that published it
}

// Core is the shared ingress of one serving node. RequestTask, Ingest,
// Snapshot and Stats are safe for concurrent use; Publish and Reset must
// be serialized by the caller (see Publish).
type Core struct {
	// name prefixes error messages ("server", "aggtree").
	name string
	cfg  Config
	// paramCount and classes are immutable: validation reads them
	// without any lock.
	paramCount int
	classes    int
	// labels guards itself (lock-free reads).
	labels *learning.LabelTracker
	// sparseOK caches Pipeline.SparseCapable(): whether a validated top-k
	// push may travel the pipeline as an index/value view and scatter
	// straight into the aggregator, skipping the O(params) densify.
	sparseOK bool

	// snap is what RequestTask serves and Ingest measures staleness
	// against, read without locking.
	snap atomic.Pointer[Snapshot]
	// history is guarded by the caller's publication lock.
	history []histEntry

	// Task counters are atomic: admission must not contend with the
	// gradient-commit path. rejects is only touched on the (already slow)
	// reject path.
	tasksServed  atomic.Int64
	tasksDropped atomic.Int64
	rejectMu     sync.Mutex
	rejects      map[string]int
}

// New validates cfg and fills the defaults both roles share. name
// prefixes the core's error messages. No snapshot is published yet:
// callers Reset or Publish one before serving.
func New(name string, cfg Config) (*Core, error) {
	if cfg.Algorithm == nil {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument, "%s: Algorithm is required", name)
	}
	if cfg.K <= 0 {
		cfg.K = 1
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.DefaultBatchSize <= 0 {
		cfg.DefaultBatchSize = 100
	}
	if cfg.DeltaHistory == 0 {
		cfg.DeltaHistory = 4
	}
	if cfg.DeltaHistory < 0 {
		cfg.DeltaHistory = 0 // negative disables; 0 internally means "none kept"
	}
	if cfg.Pipeline == nil {
		stage, err := pipeline.NewStalenessScale(cfg.Algorithm)
		if err != nil {
			return nil, protocol.AsError(err)
		}
		cfg.Pipeline, err = pipeline.New(pipeline.NewMeanWindow(cfg.Shards), stage)
		if err != nil {
			return nil, protocol.AsError(err)
		}
	}
	if cfg.Admission == nil {
		cfg.Admission = sched.NewChain()
	}
	return &Core{
		name:       name,
		cfg:        cfg,
		paramCount: cfg.Arch.Build(simrand.New(0)).ParamCount(),
		classes:    cfg.Arch.Classes(),
		labels:     learning.NewLabelTracker(cfg.Arch.Classes()),
		sparseOK:   cfg.Pipeline.SparseCapable(),
		rejects:    map[string]int{},
	}, nil
}

// K returns the window size.
func (c *Core) K() int { return c.cfg.K }

// ParamCount returns the validated parameter-vector length.
func (c *Core) ParamCount() int { return c.paramCount }

// Pipeline returns the composed update pipeline.
func (c *Core) Pipeline() *pipeline.Pipeline { return c.cfg.Pipeline }

// Admission returns the composed admission chain.
func (c *Core) Admission() sched.AdmissionPolicy { return c.cfg.Admission }

// Labels returns LD_global, the label distribution absorbed so far.
func (c *Core) Labels() *learning.LabelTracker { return c.labels }

// Snapshot returns the currently served snapshot (nil before the first
// Reset or Publish).
func (c *Core) Snapshot() *Snapshot { return c.snap.Load() }

// Tasks returns the served and dropped task counters.
func (c *Core) Tasks() (served, dropped int64) {
	return c.tasksServed.Load(), c.tasksDropped.Load()
}

// RestoreTasks sets the task counters (checkpoint restore).
func (c *Core) RestoreTasks(served, dropped int64) {
	c.tasksServed.Store(served)
	c.tasksDropped.Store(dropped)
}

// RequestTask screens a task through the admission chain and serves the
// model. The accept path is lock-free and O(1) in the model size: the
// response either shares the snapshot's parameter slice (full pull) or
// hands out a delta precomputed at publication (version-aware pull). A
// snapshot must be published.
func (c *Core) RequestTask(ctx context.Context, req *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	if err := ctx.Err(); err != nil {
		return nil, protocol.AsError(err)
	}
	if err := protocol.ValidateLabelCounts("TaskRequest.label_counts", req.LabelCounts, c.classes); err != nil {
		return nil, err
	}

	areq := &sched.TaskRequest{
		Wire:       req,
		BatchSize:  c.cfg.DefaultBatchSize,
		Similarity: c.labels.Similarity(req.LabelCounts),
	}
	decision, err := c.cfg.Admission.Admit(ctx, areq)
	if err != nil {
		return nil, protocol.AsError(err)
	}
	// Re-check before committing controller state: the profiler lookups
	// and similarity scan above may have outlived the caller's deadline.
	if err := ctx.Err(); err != nil {
		return nil, protocol.AsError(err)
	}

	if !decision.Accept {
		c.tasksDropped.Add(1)
		c.rejectMu.Lock()
		c.rejects[decision.Policy]++
		c.rejectMu.Unlock()
		return &protocol.TaskResponse{Accepted: false, Reason: decision.Reason}, nil
	}

	c.tasksServed.Add(1)
	snap := c.snap.Load()
	resp := &protocol.TaskResponse{
		Accepted:     true,
		ModelVersion: snap.Version,
		BatchSize:    decision.BatchSize,
		ServerEpoch:  snap.Epoch,
	}
	// A delta is only meaningful within one incarnation's version stream:
	// a client's cached "version 33" from a dead instance names other
	// parameters, and patching onto it would silently corrupt the cache.
	// Epoch mismatch → full pull.
	if req.WantDelta && req.KnownEpoch == snap.Epoch {
		if req.KnownVersion == snap.Version {
			// Already current: the empty delta.
			resp.ParamsDelta = &compress.Sparse{Len: len(snap.Params)}
			resp.DeltaBase = req.KnownVersion
			return resp, nil
		}
		if d, ok := snap.deltas[req.KnownVersion]; ok {
			resp.ParamsDelta = d
			resp.DeltaBase = req.KnownVersion
			return resp, nil
		}
		// Version too old, from the future, or the delta went dense:
		// transparent fallback to a full pull.
	}
	resp.Params = snap.Params // shared immutable snapshot storage
	resp.Full = true
	return resp, nil
}

// Ingest runs one pushed gradient from the wire into the window
// aggregator and returns it: g.Meta.Staleness is its staleness against the
// served snapshot, g.Scale its Equation-3 factor. On success the gradient
// is in the window and the caller must count it (Tally.Commit) — a
// committed push must complete, so the caller never aborts past here. A
// snapshot must be published.
func (c *Core) Ingest(ctx context.Context, push *protocol.GradientPush) (*pipeline.Gradient, error) {
	if err := ctx.Err(); err != nil {
		return nil, protocol.AsError(err)
	}
	// Validation and decoding touch only the immutable config, so they run
	// outside every lock. The decoder handles every uplink dialect — dense,
	// top-k, and the quantized top-k forms — and canonicalizes sparse
	// indices to strictly ascending (the scatter precondition below).
	payload, err := protocol.DecodeGradientPayload(push, c.paramCount)
	if err != nil {
		return nil, err
	}
	if push.BatchSize <= 0 {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument,
			"%s: non-positive batch size %d", c.name, push.BatchSize)
	}
	if err := protocol.ValidateLabelCounts("GradientPush.label_counts", push.LabelCounts, c.classes); err != nil {
		return nil, err
	}

	// Profiling lives at the tier that admits: feed the measured costs.
	observe(c.cfg.TimeProfiler, push.DeviceModel, push.TimeFeatures, push.CompTimeSec, push.BatchSize)
	observe(c.cfg.EnergyProfiler, push.DeviceModel, push.EnergyFeatures, push.EnergyPct, push.BatchSize)

	sim := c.labels.Similarity(push.LabelCounts)

	// Last abort point: past here the gradient is accumulated and counted,
	// which must complete even if the deadline lapses mid-flight. Checking
	// again after the O(params) decode and the profiler feeds lets a
	// Deadline interceptor fire on in-process calls that queued too long.
	if err := ctx.Err(); err != nil {
		return nil, protocol.AsError(err)
	}

	// A gradient from another incarnation was computed on parameters this
	// node cannot reason about: version_conflict is the resync signal —
	// the worker drops its cache, re-pulls full and recomputes. At an edge
	// this is where a root restart cascades down the tree, one tier at a
	// time.
	snap := c.snap.Load()
	if push.ModelEpoch != snap.Epoch {
		return nil, protocol.Errorf(protocol.CodeVersionConflict,
			"%s: gradient from server incarnation %d (this node is at incarnation %d); re-pull and recompute",
			c.name, push.ModelEpoch, snap.Epoch)
	}
	staleness := snap.Version - push.ModelVersion
	if staleness < 0 {
		return nil, protocol.Errorf(protocol.CodeVersionConflict,
			"%s: gradient from future model version %d (at %d)", c.name, push.ModelVersion, snap.Version)
	}

	// Pipeline stages: staleness scaling, DP perturbation, filters. A
	// stage rejection (e.g. the norm filter) surfaces before the gradient
	// is accumulated or counted.
	//
	// Sparse fast path: a strictly-ascending top-k view travels the
	// pipeline as-is and scatters straight into the shard accumulators
	// (pipeline.SparseAdder) — no O(params) allocation per push. Gated on
	// sparseOK (every stage SparseSafe, aggregator a SparseAdder).
	g := &pipeline.Gradient{
		Meta: learning.GradientMeta{
			Staleness:  staleness,
			Similarity: sim,
			BatchSize:  push.BatchSize,
			WorkerID:   push.WorkerID,
		},
		Scale: 1,
	}
	if payload.Sparse() && payload.Ascending && c.sparseOK {
		g.Vec = payload.Values
		g.Indices = payload.Indices
		g.DenseLen = c.paramCount
	} else {
		g.Vec = payload.Densify(c.paramCount)
	}
	if err := c.cfg.Pipeline.Process(g); err != nil {
		return nil, err
	}

	// The algorithm observes the staleness after scaling (a gradient's own
	// staleness enters the quantile history only after its scale is
	// fixed), and LD_global absorbs label mass weighted by the pure
	// staleness dampening, so labels the model never effectively
	// incorporated keep their novelty.
	c.cfg.Algorithm.Observe(g.Meta)
	c.labels.RecordWeighted(push.LabelCounts, c.cfg.Algorithm.AbsorbWeight(g.Meta))

	// The aggregator synchronizes itself (per-shard locks for the mean,
	// the window lock for retention), so pushes proceed in parallel here.
	c.cfg.Pipeline.Add(g)
	return g, nil
}

// observe feeds one measured task cost into a profiler, when configured
// and reported.
func observe(prof *iprof.IProf, device string, features []float64, cost float64, batch int) {
	if prof == nil || cost <= 0 || len(features) == 0 {
		return
	}
	prof.Observe(iprof.Observation{
		DeviceModel: device,
		Features:    features,
		Alpha:       cost / float64(batch),
	})
}

// Publish installs (version, epoch, params) as the served snapshot,
// precomputing the sparse deltas version-aware pulls are served from, and
// returns the announce for it: {version, epoch} plus the exact delta from
// the previously served version when one was kept — a single patch even
// when the publication jumped several versions. It returns false, and
// publishes nothing, when (version, epoch) is already served.
//
// Callers serialize publication (the root under its model lock, the edge
// under its upstream lock); the delta history is guarded by that lock.
// This is where the O(params) cost of the lock-free pull path lives: up
// to DeltaHistory sparse diffs, paid once per publication, never per
// RequestTask. A diff denser than half the vector is abandoned mid-scan
// (Diff's maxNNZ bound) and its version falls back to full pulls. An
// epoch change clears the history — old params are meaningless as delta
// bases across incarnations.
func (c *Core) Publish(version int, epoch int64, params []float64) (protocol.ModelAnnounce, bool) {
	old := c.snap.Load()
	if old != nil && old.Version == version && old.Epoch == epoch {
		return protocol.ModelAnnounce{}, false
	}
	next := &Snapshot{Version: version, Epoch: epoch, Params: params}
	if h := c.cfg.DeltaHistory; old != nil && old.Epoch == epoch && h > 0 {
		c.history = append(c.history, histEntry{version: old.Version, params: old.Params})
		if len(c.history) > h {
			c.history = c.history[len(c.history)-h:]
		}
		next.deltas = make(map[int]*compress.Sparse, len(c.history))
		for _, e := range c.history {
			if d, ok := compress.Diff(e.params, params, c.paramCount/2); ok {
				next.deltas[e.version] = &d
			}
		}
	} else {
		c.history = nil
	}
	c.snap.Store(next)

	ann := protocol.ModelAnnounce{ModelVersion: version, ServerEpoch: epoch}
	if old != nil {
		if d, ok := next.deltas[old.Version]; ok {
			ann.Delta = d
			ann.DeltaBase = old.Version
		}
	}
	return ann, true
}

// Reset serves (version, epoch, params) with an empty delta history — a
// boot or checkpoint restore, where no earlier parameters are held. Same
// serialization rule as Publish.
func (c *Core) Reset(version int, epoch int64, params []float64) {
	c.history = nil
	c.snap.Store(&Snapshot{Version: version, Epoch: epoch, Params: params})
}

// Stats returns the core's share of a node's diagnostics: the served
// clock, the task and per-policy reject counters, and the pipeline and
// admission composition. Roles add their push Tally and own counters.
func (c *Core) Stats(ctx context.Context) (*protocol.Stats, error) {
	if err := ctx.Err(); err != nil {
		return nil, protocol.AsError(err)
	}
	served, dropped := c.Tasks()
	c.rejectMu.Lock()
	var rejects map[string]int
	if len(c.rejects) > 0 {
		rejects = make(map[string]int, len(c.rejects))
		for k, v := range c.rejects {
			rejects[k] = v
		}
	}
	c.rejectMu.Unlock()

	st := &protocol.Stats{
		TasksServed:       int(served),
		TasksRejected:     int(dropped),
		TasksDropped:      int(dropped),
		PipelineStages:    c.cfg.Pipeline.StageNames(),
		Aggregator:        c.cfg.Pipeline.AggregatorName(),
		AdmissionPolicies: sched.Names(c.cfg.Admission),
		RejectsByPolicy:   rejects,
	}
	if snap := c.snap.Load(); snap != nil {
		st.ModelVersion, st.ServerEpoch = snap.Version, snap.Epoch
	}
	return st, nil
}

// Tally is the push bookkeeping a node keeps under its commit lock.
type Tally struct {
	GradientsIn int
	// LeafGradients counts individual worker gradients: an aggregated
	// push from an edge tier (GradientPush.Contributing > 0) adds its
	// contributing count here but 1 to GradientsIn.
	LeafGradients int
	StaleSum      float64
	// DrainErrors counts windows discarded because the drain failed.
	DrainErrors int
	pending     int
}

// Contributing is the number of worker gradients push represents: its
// Contributing count when an edge tier aggregated it, else 1.
func Contributing(push *protocol.GradientPush) int {
	return max(push.Contributing, 1)
}

// Commit counts one ingested gradient toward the k-window and reports
// whether it filled the window (the caller drains it). A push only counts
// after its mass reached the aggregator, so a full window never strands
// acked mass.
func (t *Tally) Commit(staleness, contributing, k int) bool {
	t.GradientsIn++
	t.LeafGradients += contributing
	t.StaleSum += float64(staleness)
	t.pending++
	if t.pending < k {
		return false
	}
	t.pending = 0
	return true
}

// TakePartial closes a partially filled window, reporting whether it held
// any gradient (the shutdown flush).
func (t *Tally) TakePartial() bool {
	had := t.pending > 0
	t.pending = 0
	return had
}

// Fill copies the push counters into st.
func (t *Tally) Fill(st *protocol.Stats) {
	st.GradientsIn = t.GradientsIn
	st.LeafGradients = t.LeafGradients
	st.DrainErrors = t.DrainErrors
	if t.GradientsIn > 0 {
		st.MeanStaleness = t.StaleSum / float64(t.GradientsIn)
	}
}

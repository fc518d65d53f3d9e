// Package server implements FLeet's parameter server: the web application
// hosting the global model, I-Prof, AdaSGD and the controller (Figure 2).
// *Server implements service.Service, so interceptors (logging, metrics,
// rate limiting, deadlines — see internal/service) compose around it, and
// NewHandler exposes any Service over the versioned HTTP wire protocol:
//
//	POST /v1/task     — step (1): request a learning task
//	POST /v1/gradient — step (5): push a computed gradient
//	GET  /v1/stats    — diagnostics
//
// plus the legacy unversioned /task, /gradient and /stats routes for
// pre-v1 clients. v1 payloads are Content-Type negotiated between gob+gzip
// and JSON (see internal/protocol).
//
// The two halves of the protocol scale independently:
//
//   - Uplink (PushGradient): every accepted gradient travels the update
//     pipeline (internal/pipeline) — staleness scaling, optional DP
//     perturbation, norm filtering — into a window aggregator that folds
//     each K-window into the model under the server mutex.
//   - Downlink (RequestTask): admission runs through a pluggable policy
//     chain (internal/sched) — I-Prof batch sizing, the similarity
//     controller, quotas — and the model is served from an immutable
//     snapshot behind an atomic pointer, refreshed only at window drain.
//     The accept path takes no lock and does no O(params) work: full pulls
//     hand out the shared snapshot slice, and version-aware pulls hand out
//     deltas precomputed at drain time.
//
// Both halves run through internal/ingress, the serving core the server
// shares with the aggtree edge tier. What is the server's own is the drain
// sink — the model each K-window is applied to — plus checkpoints, Restore
// and the F16 announce fallback.
package server

import (
	"context"
	"sync"
	"sync/atomic"

	"fleet/internal/compress"
	"fleet/internal/ingress"
	"fleet/internal/iprof"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/persist"
	"fleet/internal/pipeline"
	"fleet/internal/protocol"
	"fleet/internal/sched"
	"fleet/internal/simrand"
)

// Config parameterizes a FLeet server.
type Config struct {
	// Arch is the global model architecture.
	Arch nn.Arch
	// Algorithm is the aggregation rule (typically AdaSGD). The server
	// always uses it for label absorption and staleness observation; the
	// default pipeline also wraps it in a staleness-scaling stage.
	Algorithm learning.Algorithm
	// LearningRate is γ of Equation 3.
	LearningRate float64
	// K is the number of gradients aggregated per model update (default 1).
	K int
	// Shards stripes the default mean aggregator across this many
	// independently locked accumulator buffers (default 1: the classic
	// single accumulator). With Shards > 1, concurrent PushGradient calls
	// landing on different shards run their O(params) accumulation in
	// parallel and only serialize on the short metadata section. Ignored
	// when Pipeline is set (the pipeline's aggregator decides).
	Shards int
	// Pipeline, when non-nil, replaces the server's update pipeline: the
	// chain of per-gradient stages and the window aggregator every pushed
	// gradient travels (see internal/pipeline). When nil the server builds
	// the legacy-equivalent default — a staleness-scaling stage wrapping
	// Algorithm in front of a sharded mean window with Shards stripes.
	// A pipeline is stateful (its aggregator holds window/shard buffers):
	// build one per server, never share an instance between servers.
	// Build one directly (pipeline.New) or from string specs
	// (pipeline.Build), e.g.
	//
	//	pipeline.Build("staleness,norm-filter(100)", "krum(1)",
	//	    pipeline.BuildOptions{Algorithm: algo, Seed: seed})
	Pipeline *pipeline.Pipeline
	// Admission, when non-nil, is the task-admission chain: the policy
	// sequence every TaskRequest travels before the model is served (see
	// internal/sched). Nil admits everything at DefaultBatchSize.
	// Policies may hold per-worker state (quotas): build one chain per
	// server. Build one directly (sched.NewChain) or from string specs
	// (sched.Build), e.g.
	//
	//	sched.Build("iprof-time(3),min-batch(5),similarity(0.9)",
	//	    sched.BuildOptions{TimeProfiler: prof})
	Admission sched.AdmissionPolicy
	// TimeProfiler and EnergyProfiler are the I-Prof instances.
	// PushGradient always feeds measured costs back into them, whether or
	// not an Admission chain uses them for batch sizing.
	TimeProfiler   *iprof.IProf
	EnergyProfiler *iprof.IProf
	// DefaultBatchSize is the batch size the admission chain starts from
	// (default 100, the paper's mini-batch size).
	DefaultBatchSize int
	// F16Announce, when true, attaches a full half-precision parameter
	// vector (ModelAnnounce.ParamsF16) to snapshot announces whose exact
	// sparse delta went dense (or was never kept) — the dense-gradient
	// deployments that previously fell back to delta-less announces.
	// Subscribed workers overwrite their cache with the dequantized params
	// (bounded f16 rounding error, never accumulating: the next exact pull
	// or delta restores full precision per coordinate). Off by default —
	// announces are bit-exact unless a deployment opts in.
	F16Announce bool
	// DeltaHistory is how many recent model versions the server keeps
	// exact sparse deltas for, enabling version-aware pulls: a worker at
	// version t−τ (τ ≤ DeltaHistory) downloads the delta instead of the
	// full model. Deltas are precomputed at drain time so RequestTask
	// stays O(1); a delta denser than half the parameter vector is
	// discarded (the full pull is cheaper on the wire). Default 4;
	// negative disables delta pulls.
	DeltaHistory int
	// Checkpointer, when non-nil, makes the server crash-safe: learned
	// state (model, logical clock, AdaSGD staleness history, LD_global,
	// I-Prof models) is written as atomic, checksummed checkpoint files
	// (internal/persist) every CheckpointEvery windows and on explicit
	// Checkpoint calls (graceful shutdown). Boot from one with Restore /
	// RestoreLatest.
	Checkpointer *persist.Checkpointer
	// CheckpointEvery is the periodic cadence in aggregation windows
	// (model updates): every N-th drain schedules a checkpoint. 0
	// disables periodic checkpoints (explicit Checkpoint still works).
	//
	// The captured core is handed to a background writer goroutine, so
	// the encode + fsync spike never lands in a push's latency — with one
	// server per tenant, N fleets checkpointing would otherwise each
	// stall a pusher at their own cadence. Durability stays bounded: the
	// queue is small and enqueueing blocks when it is full, and Flush
	// (or Close) is the barrier that makes everything captured so far
	// durable — restores and graceful shutdowns call it first, which is
	// also what keeps the replayable restart scenarios deterministic.
	CheckpointEvery int
	// Seed initializes the global model.
	Seed int64
	// BootEpoch, when positive, is the incarnation epoch a freshly built
	// server starts at instead of 0. cmd/fleet-server derives it from a
	// persisted boot count (persist.BootNonce) so even a checkpoint-less
	// restart — -checkpoint-recover=fresh, or no checkpoint directory at
	// all — bumps the incarnation and forces live workers to resync,
	// instead of colliding with epoch 0 cached from the dead instance.
	// Ignored by Restore (the checkpoint's epoch + 1 wins).
	BootEpoch int64
}

// Server is the FLeet parameter server. All exported methods are safe for
// concurrent use.
type Server struct {
	cfg Config
	// core is the ingress shared with the edge tier: admission, push
	// validation and staleness scaling, and the published snapshot —
	// replaced only inside drainLocked (and so only under mu), whose
	// version is the server's logical clock.
	core *ingress.Core

	// mu guards the model, the snapshot publication and the push tally.
	mu    sync.Mutex
	model *nn.Network
	tally ingress.Tally
	// windowsSinceCkpt counts drains toward the periodic checkpoint
	// cadence; ckptDue is the core state captured under mu when one falls
	// due, written to disk outside the lock by the push that drained.
	windowsSinceCkpt int
	ckptDue          *ckptCore
	// snapHook is the snapshot-publish notification (OnSnapshot): the
	// streaming transport broadcasts model announcements from it. Like the
	// checkpoint, the announce is captured under mu in drainLocked
	// (announceDue) and delivered by the draining push after unlock, so
	// the hook never runs inside the model lock yet observes (version,
	// epoch, delta) exactly as published.
	snapHook    atomic.Pointer[func(protocol.ModelAnnounce)]
	announceDue *protocol.ModelAnnounce

	// restoredVersion is the logical clock the server booted from (0 on a
	// fresh boot). The snapshot's epoch is the incarnation counter
	// (Config.BootEpoch on a fresh boot — 0 unless a boot nonce is wired
	// in — and the checkpoint's epoch + 1 after a restore). The epoch
	// travels the wire so version numbers from different incarnations are
	// never confused: a restored clock re-walks versions the dead instance
	// already handed out, with different parameters behind them. Both
	// immutable after New/Restore.
	//
	// Checkpoint-less restarts are covered too: cmd/fleet-server persists
	// a seed-derived boot count (persist.BootNonce) and passes the nonce
	// as BootEpoch, so a -recover=fresh boot still forces worker resync
	// instead of colliding with epoch 0 cached from the dead instance.
	// (The nonce is deterministic per (seed, boot count), keeping the
	// harness's bit-for-bit replay intact.)
	restoredVersion int
	// ckptMu serializes checkpoint writes; the counters are atomic so
	// Stats never waits on a write in flight. ckptVersion (under ckptMu)
	// is the highest version already persisted: a writer holding an older
	// captured core (it was descheduled between capture and write while
	// newer pushes checkpointed) skips instead of clobbering recency —
	// persist keys "latest" on a monotonic sequence number, so an
	// out-of-order write would otherwise make an older state the newest.
	ckptMu      sync.Mutex
	ckptVersion int
	checkpoints atomic.Int64
	ckptErrors  atomic.Int64

	// The background checkpoint writer (nil channels when no Checkpointer
	// is configured): drain-captured cores queue on ckptQ and are written
	// off the pushing goroutine. ckptQuit tells the writer to drain and
	// exit (Close); ckptDone closes when it has. closeOnce makes Close
	// idempotent.
	ckptQ     chan ckptReq
	ckptQuit  chan struct{}
	ckptDone  chan struct{}
	closeOnce sync.Once
}

// ckptCore is the model-critical slice of a checkpoint, captured atomically
// under s.mu at drain time: version and params move together. params shares
// the immutable snapshot storage, so the capture is O(1).
type ckptCore struct {
	version int
	params  []float64
	tally   ingress.Tally
}

// ckptReq is one unit of work for the background checkpoint writer: a
// fully captured state to persist, or (nil state) a flush barrier
// acknowledged once everything queued before it has been written. The
// state is captured on the push goroutine at enqueue time — capturing at
// write time would snapshot AdaSGD/label/profiler state that later pushes
// already advanced, making the durable bytes timing-dependent and breaking
// replayable restarts.
type ckptReq struct {
	st      *persist.State
	barrier chan struct{}
}

// ckptQueueDepth bounds the background writer's backlog; a full queue
// blocks the enqueueing push (backpressure), never drops durability.
const ckptQueueDepth = 4

// New builds a server with a freshly initialized global model.
func New(cfg Config) (*Server, error) {
	core, err := ingress.New("server", ingress.Config{
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
	if cfg.LearningRate <= 0 {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument, "server: LearningRate must be positive")
	}
	model := cfg.Arch.Build(simrand.New(cfg.Seed))
	s := &Server{cfg: cfg, core: core, model: model}
	core.Reset(0, max(cfg.BootEpoch, 0), model.ParamVector())
	if cfg.Checkpointer != nil {
		s.ckptQ = make(chan ckptReq, ckptQueueDepth)
		s.ckptQuit = make(chan struct{})
		s.ckptDone = make(chan struct{})
		go s.ckptWriter()
	}
	return s, nil
}

// Pipeline returns the server's composed update pipeline.
func (s *Server) Pipeline() *pipeline.Pipeline { return s.core.Pipeline() }

// Admission returns the server's composed admission chain.
func (s *Server) Admission() sched.AdmissionPolicy { return s.core.Admission() }

// RequestTask processes step (1)→(4) of Figure 2: screen the task through
// the admission chain (I-Prof batch sizing, the controller) and serve the
// model from the lock-free snapshot (see ingress.Core.RequestTask).
func (s *Server) RequestTask(ctx context.Context, req *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	return s.core.RequestTask(ctx, req)
}

// PushGradient processes step (5): the gradient runs through the update
// pipeline's stages (staleness scaling, DP, filters) into the window
// aggregator (see ingress.Core.Ingest), and the model is updated after K
// gradients.
func (s *Server) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	g, err := s.core.Ingest(ctx, push)
	if err != nil {
		return nil, err
	}

	// Commit section: the logical clock advances inside drainLocked, after
	// the model is updated, keeping (params, version) consistent for
	// RequestTask.
	//
	// A drain failure does NOT fail the push: this gradient was already
	// counted and accumulated, so returning an error would invite a retry
	// that double-contributes. The window is discarded, the failure is
	// surfaced through Stats.DrainErrors, and the pusher gets its ack.
	s.mu.Lock()
	if s.tally.Commit(g.Meta.Staleness, ingress.Contributing(push), s.core.K()) {
		if err := s.drainLocked(); err != nil {
			s.tally.DrainErrors++
		}
	}
	ack := &protocol.PushAck{
		Applied:    true,
		Staleness:  g.Meta.Staleness,
		Scale:      g.Scale,
		NewVersion: s.core.Snapshot().Version,
	}
	due := s.ckptDue
	s.ckptDue = nil
	ann := s.announceDue
	s.announceDue = nil
	s.mu.Unlock()
	if ann != nil {
		if fn := s.snapHook.Load(); fn != nil {
			(*fn)(*ann)
		}
	}
	if due != nil {
		// The periodic checkpoint the drain scheduled: the full state is
		// captured here, on the push goroutine with the model lock already
		// released — the same cut the synchronous writer took — and only
		// the encode+fsync is deferred to the background writer.
		s.enqueueCheckpoint(s.captureState(*due))
	}
	return ack, nil
}

// ckptWriter is the background checkpoint goroutine: it encodes and fsyncs
// queued cores off the push path, acknowledges flush barriers, and on Close
// drains whatever is already queued before exiting.
func (s *Server) ckptWriter() {
	defer close(s.ckptDone)
	serve := func(req ckptReq) {
		if req.st != nil {
			s.saveState(req.st)
		}
		if req.barrier != nil {
			close(req.barrier)
		}
	}
	for {
		select {
		case req := <-s.ckptQ:
			serve(req)
		case <-s.ckptQuit:
			for {
				select {
				case req := <-s.ckptQ:
					serve(req)
				default:
					return
				}
			}
		}
	}
}

// enqueueCheckpoint hands a captured state to the background writer. The
// queue is small and the send blocks when it is full — backpressure, never
// dropped durability. A push racing Close (the writer already gone) falls
// back to writing synchronously, preserving the pre-Close guarantee.
func (s *Server) enqueueCheckpoint(st *persist.State) {
	select {
	case s.ckptQ <- ckptReq{st: st}:
	case <-s.ckptDone:
		s.saveState(st)
	}
}

// Flush is the checkpoint barrier: it returns once every core captured
// before the call is durable (or failed and was counted — same as the
// synchronous path). A server without a Checkpointer returns immediately.
// Restores and graceful shutdowns flush first, so "what was due before the
// cut" is exactly what a restore will find — the property the replayable
// restart scenarios assert bit-for-bit.
func (s *Server) Flush() {
	if s.ckptQ == nil {
		return
	}
	barrier := make(chan struct{})
	select {
	case s.ckptQ <- ckptReq{barrier: barrier}:
		select {
		case <-barrier:
		case <-s.ckptDone:
		}
	case <-s.ckptDone:
	}
}

// Close flushes the checkpoint queue and stops the background writer.
// Idempotent; a server without a Checkpointer has nothing to do. Close does
// not take a final checkpoint — callers wanting one (graceful shutdown)
// call Checkpoint first. The server remains usable for serving after Close
// (late periodic checkpoints degrade to synchronous writes), but the
// intended order is: quiesce, Checkpoint if desired, Close.
func (s *Server) Close() error {
	if s.ckptQ == nil {
		return nil
	}
	s.closeOnce.Do(func() {
		s.Flush()
		close(s.ckptQuit)
		<-s.ckptDone
	})
	return nil
}

// OnSnapshot registers fn to be called after every drain that publishes a
// new model snapshot, with the just-published version, epoch and (when the
// delta history retains one) the sparse delta from the immediately
// preceding version — exactly what a streaming transport broadcasts to
// subscribed workers. fn runs on the goroutine of the push that drained,
// outside the model lock, strictly before that push's ack returns; keep it
// non-blocking (the stream server's Broadcast is). A nil fn unregisters.
func (s *Server) OnSnapshot(fn func(protocol.ModelAnnounce)) {
	if fn == nil {
		s.snapHook.Store(nil)
		return
	}
	s.snapHook.Store(&fn)
}

// drainLocked folds the aggregator's window into the model, advances the
// logical clock, and publishes a fresh immutable snapshot, so version and
// parameters move together under s.mu. Callers hold s.mu; the aggregator
// takes its own locks inside (lock order s.mu → aggregator, acyclic). The
// clock advances even when the drain errors (the window is discarded), so
// a poisoned window cannot stall the version stream. The error is counted
// by the caller into Stats.DrainErrors and never surfaced to the pusher —
// its gradient is committed either way, so the push is not retriable;
// built-in aggregators never error on server-validated windows.
//
// This is also where the O(params) cost of the lock-free pull path lives:
// one ParamVector copy for the new snapshot plus the delta diffs Publish
// precomputes — paid once per K-window, never per RequestTask.
func (s *Server) drainLocked() error {
	err := s.core.Pipeline().Drain(func(direction []float64) {
		s.model.ApplyGradient(direction, s.cfg.LearningRate)
	})
	old := s.core.Snapshot()
	params := s.model.ParamVector()
	ann, _ := s.core.Publish(old.Version+1, old.Epoch, params)

	// Snapshot-publish notification: captured here so the announce carries
	// the same immutable state just published, delivered by the draining
	// push after it releases s.mu (see OnSnapshot). The v−1→v delta, when
	// the history kept one, is shared with the snapshot — immutable, so the
	// transport may encode it concurrently with further drains.
	if s.snapHook.Load() != nil {
		due := ann
		if due.Delta == nil && s.cfg.F16Announce {
			// No exact delta retained (dense-gradient deployments hit
			// Diff's half-vector bound every window): attach the full
			// model in half precision so subscribers still absorb the
			// announce instead of falling back to a delta-less ping.
			due.ParamsF16 = compress.PackF16(params)
		}
		s.announceDue = &due
	}

	// Periodic crash safety: every CheckpointEvery-th window schedules a
	// durable snapshot. Only the O(1) core capture happens here (params
	// shares the just-published immutable storage); the push that drained
	// writes the file after releasing s.mu.
	if s.cfg.Checkpointer != nil && s.cfg.CheckpointEvery > 0 {
		s.windowsSinceCkpt++
		if s.windowsSinceCkpt >= s.cfg.CheckpointEvery {
			s.windowsSinceCkpt = 0
			s.ckptDue = s.coreLocked()
		}
	}
	return err
}

// coreLocked captures the checkpoint core: the published snapshot and the
// push tally. Callers hold s.mu.
func (s *Server) coreLocked() *ckptCore {
	snap := s.core.Snapshot()
	return &ckptCore{version: snap.Version, params: snap.Params, tally: s.tally}
}

// captureState assembles the full persist.State around a core capture. The
// auxiliary blocks (AdaSGD history, LD_global, profilers) snapshot
// themselves under their own locks, so they may trail the core by the few
// pushes that landed since the drain — they tune scaling heuristics, not
// model correctness (see persist.State).
func (s *Server) captureState(core ckptCore) *persist.State {
	st := &persist.State{
		Arch:          s.cfg.Arch.String(),
		Epoch:         s.Epoch(),
		Version:       core.version,
		Params:        core.params,
		GradientsIn:   core.tally.GradientsIn,
		LeafGradients: core.tally.LeafGradients,
		StaleSum:      core.tally.StaleSum,
	}
	st.TasksServed, st.TasksDropped = s.core.Tasks()
	if a, ok := s.cfg.Algorithm.(*learning.AdaSGD); ok {
		ada := a.ExportState()
		st.AdaSGD = &ada
	}
	labels := s.core.Labels().ExportState()
	st.Labels = &labels
	if s.cfg.TimeProfiler != nil {
		st.TimeProfiler = s.cfg.TimeProfiler.ExportState()
	}
	if s.cfg.EnergyProfiler != nil {
		st.EnergyProfiler = s.cfg.EnergyProfiler.ExportState()
	}
	return st
}

// saveState persists one captured state; failures are counted (and visible
// in Stats.CheckpointErrors), never propagated onto the push path. A state
// older than what is already durable is dropped: writing it would register
// as the newest checkpoint and roll a future restore backwards.
func (s *Server) saveState(st *persist.State) {
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	if st.Version < s.ckptVersion {
		return
	}
	if _, err := s.cfg.Checkpointer.Save(st); err != nil {
		s.ckptErrors.Add(1)
		return
	}
	s.ckptVersion = st.Version
	s.checkpoints.Add(1)
}

// Checkpoint writes a durable snapshot of the current state now — the
// graceful-shutdown path (fleet-server checkpoints on SIGTERM before
// draining), also useful around risky operations. It requires a configured
// Checkpointer.
func (s *Server) Checkpoint() (string, error) {
	if s.cfg.Checkpointer == nil {
		return "", protocol.Errorf(protocol.CodeInvalidArgument, "server: no Checkpointer configured")
	}
	// ckptMu first, capture second: the capture is then guaranteed at
	// least as new as anything already persisted, so the recency guard
	// never fires on the explicit path. The order is acyclic with the
	// push path, which releases s.mu before taking ckptMu.
	s.ckptMu.Lock()
	defer s.ckptMu.Unlock()
	s.mu.Lock()
	core := s.coreLocked()
	s.ckptDue = nil // an explicit checkpoint supersedes a scheduled one
	s.mu.Unlock()

	path, err := s.cfg.Checkpointer.Save(s.captureState(*core))
	if err != nil {
		s.ckptErrors.Add(1)
		return "", err
	}
	s.ckptVersion = core.version
	s.checkpoints.Add(1)
	return path, nil
}

// Restore builds a server whose learned state comes from a checkpoint
// instead of a fresh initialization: the model and logical clock resume at
// the checkpointed version, AdaSGD's staleness history, LD_global and the
// I-Prof models (where configured) are reinstated, and the push/task
// counters carry over. The delta history is intentionally NOT restored —
// deltas reference exact parameter vectors the restarted process no longer
// holds — so version-aware pulls fall back to full downloads until the
// history refills at drain time.
//
// Validation is strict and structured: an architecture or parameter-count
// mismatch against cfg.Arch fails with invalid_argument rather than booting
// a silently wrong model.
func Restore(cfg Config, st *persist.State) (*Server, error) {
	if st == nil {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument, "server: Restore with nil state")
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	if st.Arch != s.cfg.Arch.String() {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument,
			"server: checkpoint is for architecture %q, config wants %q", st.Arch, s.cfg.Arch.String())
	}
	if n := s.core.ParamCount(); len(st.Params) != n {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument,
			"server: checkpoint has %d params, architecture %q needs %d", len(st.Params), s.cfg.Arch, n)
	}
	if st.Version < 0 {
		return nil, protocol.Errorf(protocol.CodeInvalidArgument,
			"server: checkpoint has negative version %d", st.Version)
	}
	s.model.SetParams(st.Params)
	s.tally = ingress.Tally{
		GradientsIn:   st.GradientsIn,
		LeafGradients: st.LeafGradients,
		StaleSum:      st.StaleSum,
	}
	s.restoredVersion = st.Version
	// A new incarnation: pushes and delta requests carrying the old epoch
	// are detected instead of colliding with our re-walked version stream.
	s.core.Reset(st.Version, st.Epoch+1, s.model.ParamVector())
	s.core.RestoreTasks(st.TasksServed, st.TasksDropped)
	if st.AdaSGD != nil {
		if a, ok := s.cfg.Algorithm.(*learning.AdaSGD); ok {
			a.RestoreState(*st.AdaSGD)
		}
	}
	if st.Labels != nil {
		if err := s.core.Labels().RestoreState(*st.Labels); err != nil {
			return nil, protocol.Errorf(protocol.CodeInvalidArgument, "server: %v", err)
		}
	}
	if st.TimeProfiler != nil && s.cfg.TimeProfiler != nil {
		if err := s.cfg.TimeProfiler.RestoreState(st.TimeProfiler); err != nil {
			return nil, protocol.Errorf(protocol.CodeInvalidArgument, "server: time profiler: %v", err)
		}
	}
	if st.EnergyProfiler != nil && s.cfg.EnergyProfiler != nil {
		if err := s.cfg.EnergyProfiler.RestoreState(st.EnergyProfiler); err != nil {
			return nil, protocol.Errorf(protocol.CodeInvalidArgument, "server: energy profiler: %v", err)
		}
	}
	return s, nil
}

// RestoreLatest boots from the newest valid checkpoint in dir — what
// fleet-server -checkpoint-dir does on startup. The error is structured:
// persist.ErrNoCheckpoint for an empty directory (callers explicitly
// allowing fresh boots test for it), a *persist.CorruptError when files
// exist but none loads.
func RestoreLatest(cfg Config, dir string) (*Server, error) {
	st, _, err := persist.LoadLatest(dir)
	if err != nil {
		return nil, err
	}
	return Restore(cfg, st)
}

// RestoredVersion returns the logical clock the server booted from: 0 for
// a fresh boot, the checkpoint's version after Restore.
func (s *Server) RestoredVersion() int { return s.restoredVersion }

// Epoch returns the server's incarnation counter: 0 for a fresh boot,
// incremented by every checkpoint restore.
func (s *Server) Epoch() int64 { return s.core.Snapshot().Epoch }

// Stats returns a diagnostic snapshot, including the composed update
// pipeline (stage names in chain order plus the window aggregator) and the
// composed admission chain with its per-policy reject counters.
func (s *Server) Stats(ctx context.Context) (*protocol.Stats, error) {
	st, err := s.core.Stats(ctx)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.tally.Fill(st)
	s.mu.Unlock()
	st.Checkpoints = int(s.checkpoints.Load())
	st.CheckpointErrors = int(s.ckptErrors.Load())
	st.RestoredVersion = s.restoredVersion
	return st, nil
}

// Model returns a copy of the current global parameters and their version,
// served lock-free from the published snapshot.
func (s *Server) Model() ([]float64, int) {
	snap := s.core.Snapshot()
	out := make([]float64, len(snap.Params))
	copy(out, snap.Params)
	return out, snap.Version
}

// Evaluate computes test accuracy of the current global model. The provided
// scratch network must have the same architecture; it is overwritten.
func (s *Server) Evaluate(scratch *nn.Network, test []nn.Sample) float64 {
	params, _ := s.Model()
	scratch.SetParams(params)
	return scratch.Accuracy(test)
}

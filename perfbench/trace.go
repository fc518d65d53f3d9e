package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"fleet/internal/pipeline"
	"fleet/internal/protocol"
	"fleet/internal/sched"
	"fleet/internal/service"
)

// Span names. A layer is the part of a name before its first dot; the
// client call spans ("client.*") belong to the transport's client module
// (worker over HTTP, stream over sessions) and are reassigned at analysis.
const (
	spRound          = "bench.round"
	spClientPull     = "client.pull"
	spClientPush     = "client.push"
	spEncode         = "protocol.encode"
	spDecode         = "protocol.decode"
	spDecodeAnnounce = "protocol.decode_announce"
	spHTTP           = "server.http"
	spServerPull     = "server.pull"
	spServerPush     = "server.push"
	spPublish        = "server.publish"
	spEdgePull       = "aggtree.pull"
	spEdgePush       = "aggtree.push"
	spForward        = "aggtree.forward"
	spRefresh        = "aggtree.refresh"
	spRelay          = "aggtree.relay"
	spAdmit          = "sched.admit"
	spAdd            = "pipeline.add"
	spDrain          = "pipeline.drain"
	spApply          = "nn.apply"
	spBroadcast      = "stream.broadcast"
)

// maxSpans bounds the in-memory span store (32 bytes a span). A run that
// would exceed it stops recording and is flagged, so per-layer figures are
// never silently computed from a truncated trace.
const maxSpans = 4 << 20

const chunkBits = 16

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's base; parent and round are -1 when unknown.
type span struct {
	start, end int64
	parent     int32
	round      int32
	name       uint16
	failed     bool
}

// spanRef identifies a span in flight so that calls it makes can name it
// as their parent. A pending ref is an HTTP handler span whose parent is
// resolved by the service span inside it (the handler cannot see the
// worker id before the body is decoded).
type spanRef struct {
	id      int32
	round   int32
	parent  int32
	pending bool
}

type refKey struct{}

func withRef(ctx context.Context, ref *spanRef) context.Context {
	return context.WithValue(ctx, refKey{}, ref)
}

func refFrom(ctx context.Context) *spanRef {
	ref, _ := ctx.Value(refKey{}).(*spanRef)
	return ref
}

// tracer records spans around calls into the program's public interfaces.
// It is only ever installed by a traced run; an untraced run assembles the
// same nodes without any of the wrappers below.
type tracer struct {
	base    time.Time
	nextID  atomic.Int32
	rounds  atomic.Int32
	dropped atomic.Int64

	mu     sync.Mutex
	chunks [][]span
	names  []string
	ids    map[string]uint16

	// calls maps a device id to the client call it has in flight, so a
	// server-side span can find its parent when no context crosses the
	// transport (stream sessions, HTTP).
	callMu sync.Mutex
	calls  map[int]*spanRef
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), ids: map[string]uint16{}, calls: map[int]*spanRef{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// name interns a span name.
func (t *tracer) name(s string) uint16 {
	t.mu.Lock()
	defer t.mu.Unlock()
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := uint16(len(t.names))
	t.names = append(t.names, s)
	t.ids[s] = id
	return id
}

func (t *tracer) newID() int32 { return t.nextID.Add(1) - 1 }

func (t *tracer) newRound() int32 { return t.rounds.Add(1) - 1 }

// put stores a finished span under its id.
func (t *tracer) put(id int32, s span) {
	if id < 0 || int(id) >= maxSpans {
		t.dropped.Add(1)
		return
	}
	c := int(id) >> chunkBits
	t.mu.Lock()
	for len(t.chunks) <= c {
		t.chunks = append(t.chunks, make([]span, 1<<chunkBits))
	}
	chunk := t.chunks[c]
	t.mu.Unlock()
	chunk[int(id)&(1<<chunkBits-1)] = s
}

func (t *tracer) record(id int32, name uint16, parent *spanRef, start, end int64, failed bool) {
	s := span{start: start, end: end, parent: -1, round: -1, name: name, failed: failed}
	if parent != nil {
		s.parent, s.round = parent.id, parent.round
	}
	t.put(id, s)
}

// spans returns every recorded span, indexed by id. Call it only after
// every traced call has returned.
func (t *tracer) spans() []span {
	n := int(t.nextID.Load())
	if n > maxSpans {
		n = maxSpans
	}
	out := make([]span, 0, n)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.chunks {
		out = append(out, c...)
	}
	return out[:min(n, len(out))]
}

func (t *tracer) setCall(worker int, ref *spanRef) {
	t.callMu.Lock()
	t.calls[worker] = ref
	t.callMu.Unlock()
}

func (t *tracer) clearCall(worker int) {
	t.callMu.Lock()
	delete(t.calls, worker)
	t.callMu.Unlock()
}

func (t *tracer) call(worker int) *spanRef {
	t.callMu.Lock()
	defer t.callMu.Unlock()
	return t.calls[worker]
}

// writeSpans writes the trace to path: a header line of the span names,
// a JSON array, then one little-endian record per span (start, end int64;
// parent, round int32; name uint16; failed uint8).
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	header, err := json.Marshal(t.names)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	_, _ = w.Write(append(header, '\n'))
	rec := make([]byte, 0, 27)
	for _, s := range t.spans() {
		rec = binary.LittleEndian.AppendUint64(rec[:0], uint64(s.start))
		rec = binary.LittleEndian.AppendUint64(rec, uint64(s.end))
		rec = binary.LittleEndian.AppendUint32(rec, uint32(s.parent))
		rec = binary.LittleEndian.AppendUint32(rec, uint32(s.round))
		rec = binary.LittleEndian.AppendUint16(rec, s.name)
		if s.failed {
			rec = append(rec, 1)
		} else {
			rec = append(rec, 0)
		}
		_, _ = w.Write(rec) // a bufio.Writer keeps its first error for Flush
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// clientTrace instruments one load-generating client: its calls into the
// transport client and that client's codec.
type clientTrace struct {
	tr  *tracer
	cur atomic.Pointer[spanRef]

	pull, push, encode, decode, decodeAnn uint16
	// announceBytes counts encoded announce payload bytes this client
	// decoded off its session.
	announceBytes atomic.Int64
}

func (t *tracer) client() *clientTrace {
	return &clientTrace{
		tr:        t,
		pull:      t.name(spClientPull),
		push:      t.name(spClientPush),
		encode:    t.name(spEncode),
		decode:    t.name(spDecode),
		decodeAnn: t.name(spDecodeAnnounce),
	}
}

// interceptor records one span per call into the transport client, parented
// to the round in ctx, and publishes the call for server-side lookup.
func (ct *clientTrace) interceptor() service.Interceptor {
	return service.Around(func(ctx context.Context, info service.CallInfo, next func(context.Context) (interface{}, error)) (interface{}, error) {
		name := ct.pull
		switch info.Method {
		case "PushGradient":
			name = ct.push
		case "Stats":
			return next(ctx)
		}
		parent := refFrom(ctx)
		ref := &spanRef{id: ct.tr.newID(), round: -1}
		if parent != nil {
			ref.round = parent.round
		}
		ct.tr.setCall(info.WorkerID, ref)
		ct.cur.Store(ref)
		start := ct.tr.now()
		v, err := next(withRef(ctx, ref))
		end := ct.tr.now()
		ct.cur.Store(nil)
		ct.tr.clearCall(info.WorkerID)
		ct.tr.record(ref.id, name, parent, start, end, err != nil)
		return v, err
	})
}

// codec wraps the client's wire codec. Announce decodes run on the
// session's read loop, outside any call, and are recorded without parent.
type tracedCodec struct {
	protocol.Codec
	ct *clientTrace
}

func (c tracedCodec) Encode(w io.Writer, v interface{}) error {
	parent := c.ct.cur.Load()
	id := c.ct.tr.newID()
	start := c.ct.tr.now()
	err := c.Codec.Encode(w, v)
	c.ct.tr.record(id, c.ct.encode, parent, start, c.ct.tr.now(), err != nil)
	return err
}

func (c tracedCodec) Decode(r io.Reader, v interface{}) error {
	if _, ok := v.(*protocol.ModelAnnounce); ok {
		cr := &countReader{r: r}
		id := c.ct.tr.newID()
		start := c.ct.tr.now()
		err := c.Codec.Decode(cr, v)
		c.ct.tr.record(id, c.ct.decodeAnn, nil, start, c.ct.tr.now(), err != nil)
		c.ct.announceBytes.Add(cr.n)
		return err
	}
	parent := c.ct.cur.Load()
	id := c.ct.tr.newID()
	start := c.ct.tr.now()
	err := c.Codec.Decode(r, v)
	c.ct.tr.record(id, c.ct.decode, parent, start, c.ct.tr.now(), err != nil)
	return err
}

type countReader struct {
	r io.Reader
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// handler wraps server.NewHandler: the span covers the whole exchange, and
// its parent (the client call) is filled in by the service span inside.
func (t *tracer) handler(h http.Handler) http.Handler {
	name := t.name(spHTTP)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ref := &spanRef{id: t.newID(), round: -1, parent: -1, pending: true}
		start := t.now()
		h.ServeHTTP(w, r.WithContext(withRef(r.Context(), ref)))
		end := t.now()
		s := span{start: start, end: end, parent: ref.parent, round: ref.round, name: name}
		t.put(ref.id, s)
	})
}

// nodeTrace instruments one serving node (the root server or an edge):
// its service surface, admission chain, pipeline and snapshot hook.
type nodeTrace struct {
	tr *tracer

	mu sync.Mutex
	// inflight maps a calling worker id to the node's service span, for
	// the pipeline stages, which see the worker id but no context.
	inflight map[int]*spanRef
	// vecOwner maps a processed gradient's backing array to the service
	// span that pushed it; the aggregator sees only the vector.
	vecOwner map[*float64]*spanRef
	// lastAdder is the push span whose gradient entered the window last:
	// the parent of a drain, its model apply and the snapshot publication.
	// With two pushes in their commit sections at once this can name the
	// wrong one of the two; per-layer totals do not depend on it.
	lastAdder atomic.Pointer[spanRef]
	drainEnd  atomic.Int64

	adds, sparseAdds atomic.Int64
	admits, rejects  atomic.Int64
	stageRejects     atomic.Int64
}

func (t *tracer) node() *nodeTrace {
	return &nodeTrace{tr: t, inflight: map[int]*spanRef{}, vecOwner: map[*float64]*spanRef{}}
}

// serviceParent finds the parent of a service span: the caller's span in
// ctx (in-process calls, edge forwards), the HTTP handler span around it,
// or the device's client call in flight.
func (nt *nodeTrace) serviceParent(ctx context.Context, worker int) *spanRef {
	ref := refFrom(ctx)
	if ref != nil && !ref.pending {
		return ref
	}
	call := nt.tr.call(worker)
	if ref == nil {
		return call
	}
	if call != nil {
		ref.parent, ref.round = call.id, call.round
	}
	return ref
}

// interceptor records the node's service spans (pullName, pushName).
func (nt *nodeTrace) interceptor(pullName, pushName string) service.Interceptor {
	pull, push := nt.tr.name(pullName), nt.tr.name(pushName)
	return service.Around(func(ctx context.Context, info service.CallInfo, next func(context.Context) (interface{}, error)) (interface{}, error) {
		name := pull
		switch info.Method {
		case "PushGradient":
			name = push
		case "Stats":
			return next(ctx)
		}
		parent := nt.serviceParent(ctx, info.WorkerID)
		ref := &spanRef{id: nt.tr.newID(), round: -1}
		if parent != nil {
			ref.round = parent.round
		}
		nt.mu.Lock()
		nt.inflight[info.WorkerID] = ref
		nt.mu.Unlock()
		start := nt.tr.now()
		v, err := next(withRef(ctx, ref))
		end := nt.tr.now()
		nt.mu.Lock()
		delete(nt.inflight, info.WorkerID)
		nt.mu.Unlock()
		nt.tr.record(ref.id, name, parent, start, end, err != nil)
		return v, err
	})
}

func (nt *nodeTrace) worker(id int) *spanRef {
	nt.mu.Lock()
	defer nt.mu.Unlock()
	return nt.inflight[id]
}

// policy wraps one admission policy. Members are wrapped rather than the
// chain, so the chain still lists its members in Stats. The first member
// counts admission calls; whichever member rejects counts the reject.
func (nt *nodeTrace) policy(p sched.AdmissionPolicy, first bool) sched.AdmissionPolicy {
	return &tracedPolicy{AdmissionPolicy: p, nt: nt, name: nt.tr.name(spAdmit), first: first}
}

type tracedPolicy struct {
	sched.AdmissionPolicy
	nt    *nodeTrace
	name  uint16
	first bool
}

func (p *tracedPolicy) Admit(ctx context.Context, req *sched.TaskRequest) (sched.Decision, error) {
	parent := refFrom(ctx)
	id := p.nt.tr.newID()
	start := p.nt.tr.now()
	d, err := p.AdmissionPolicy.Admit(ctx, req)
	p.nt.tr.record(id, p.name, parent, start, p.nt.tr.now(), err != nil)
	if p.first {
		p.nt.admits.Add(1)
	}
	if err == nil && !d.Accept {
		p.nt.rejects.Add(1)
	}
	return d, err
}

// stage wraps one pipeline stage. It forwards pipeline.SparseSafe, so a
// pipeline of wrapped sparse-safe stages keeps the server's scatter path.
func (nt *nodeTrace) stage(s pipeline.Stage, label string) pipeline.Stage {
	return &tracedStage{Stage: s, nt: nt, name: nt.tr.name("pipeline.stage." + label)}
}

type tracedStage struct {
	pipeline.Stage
	nt   *nodeTrace
	name uint16
}

func (s *tracedStage) SparseSafe() bool {
	ss, ok := s.Stage.(pipeline.SparseSafe)
	return ok && ss.SparseSafe()
}

func (s *tracedStage) Process(g *pipeline.Gradient) error {
	parent := s.nt.worker(g.Meta.WorkerID)
	id := s.nt.tr.newID()
	start := s.nt.tr.now()
	err := s.Stage.Process(g)
	s.nt.tr.record(id, s.name, parent, start, s.nt.tr.now(), err != nil)
	if len(g.Vec) > 0 {
		key := &g.Vec[0]
		s.nt.mu.Lock()
		if err != nil {
			delete(s.nt.vecOwner, key)
		} else {
			s.nt.vecOwner[key] = parent
		}
		s.nt.mu.Unlock()
	}
	if err != nil {
		s.nt.stageRejects.Add(1)
	}
	return err
}

// aggregator wraps the node's window aggregator; wrapApply names the model
// apply inside Drain (the root's nn update; an edge's apply only sums).
// The wrapper implements pipeline.SparseAdder exactly when the inner
// aggregator does, so pipeline.SparseCapable answers as it would unwrapped.
func (nt *nodeTrace) aggregator(agg pipeline.WindowAggregator, wrapApply bool) pipeline.WindowAggregator {
	ta := &tracedAgg{WindowAggregator: agg, nt: nt, add: nt.tr.name(spAdd), drain: nt.tr.name(spDrain), apply: -1}
	if wrapApply {
		ta.apply = int(nt.tr.name(spApply))
	}
	if sa, ok := agg.(pipeline.SparseAdder); ok {
		return &tracedSparseAgg{tracedAgg: ta, sa: sa}
	}
	return ta
}

type tracedAgg struct {
	pipeline.WindowAggregator
	nt         *nodeTrace
	add, drain uint16
	apply      int
}

func (a *tracedAgg) owner(vec []float64) *spanRef {
	if len(vec) == 0 {
		return nil
	}
	a.nt.mu.Lock()
	defer a.nt.mu.Unlock()
	ref := a.nt.vecOwner[&vec[0]]
	delete(a.nt.vecOwner, &vec[0])
	return ref
}

func (a *tracedAgg) Add(vec []float64, scale float64) {
	parent := a.owner(vec)
	id := a.nt.tr.newID()
	start := a.nt.tr.now()
	a.WindowAggregator.Add(vec, scale)
	a.nt.tr.record(id, a.add, parent, start, a.nt.tr.now(), false)
	a.nt.adds.Add(1)
	a.nt.lastAdder.Store(parent)
}

func (a *tracedAgg) Drain(apply func(direction []float64)) error {
	parent := a.nt.lastAdder.Load()
	ref := &spanRef{id: a.nt.tr.newID(), round: -1}
	if parent != nil {
		ref.round = parent.round
	}
	inner := apply
	if a.apply >= 0 {
		inner = func(direction []float64) {
			id := a.nt.tr.newID()
			start := a.nt.tr.now()
			apply(direction)
			a.nt.tr.record(id, uint16(a.apply), ref, start, a.nt.tr.now(), false)
		}
	}
	start := a.nt.tr.now()
	err := a.WindowAggregator.Drain(inner)
	end := a.nt.tr.now()
	a.nt.tr.record(ref.id, a.drain, parent, start, end, err != nil)
	a.nt.drainEnd.Store(end)
	return err
}

type tracedSparseAgg struct {
	*tracedAgg
	sa pipeline.SparseAdder
}

func (a *tracedSparseAgg) AddSparse(denseLen int, idx []int32, vals []float64, scale float64) {
	parent := a.owner(vals)
	id := a.nt.tr.newID()
	start := a.nt.tr.now()
	a.sa.AddSparse(denseLen, idx, vals, scale)
	a.nt.tr.record(id, a.add, parent, start, a.nt.tr.now(), false)
	a.nt.adds.Add(1)
	a.nt.sparseAdds.Add(1)
	a.nt.lastAdder.Store(parent)
}

// snapshotHook wraps a snapshot hook the workload registers anyway: it
// records the publication (drain return → hook) and the hook itself.
func (nt *nodeTrace) snapshotHook(hookName string, fn func(protocol.ModelAnnounce)) func(protocol.ModelAnnounce) {
	publish, hook := nt.tr.name(spPublish), nt.tr.name(hookName)
	return func(ann protocol.ModelAnnounce) {
		parent := nt.lastAdder.Load()
		start := nt.tr.now()
		nt.tr.record(nt.tr.newID(), publish, parent, nt.drainEnd.Load(), start, false)
		id := nt.tr.newID()
		fn(ann)
		nt.tr.record(id, hook, parent, start, nt.tr.now(), false)
	}
}

// upstream wraps an edge's upstream service: window forwards and model
// refreshes, parented to the edge's service span in ctx.
func (nt *nodeTrace) upstream(up service.Service) service.Service {
	forward, refresh := nt.tr.name(spForward), nt.tr.name(spRefresh)
	return service.Chain(up, service.Around(func(ctx context.Context, info service.CallInfo, next func(context.Context) (interface{}, error)) (interface{}, error) {
		name := refresh
		switch info.Method {
		case "PushGradient":
			name = forward
		case "Stats":
			return next(ctx)
		}
		parent := refFrom(ctx)
		ref := &spanRef{id: nt.tr.newID(), round: -1}
		if parent != nil {
			ref.round = parent.round
		}
		start := nt.tr.now()
		v, err := next(withRef(ctx, ref))
		nt.tr.record(ref.id, name, parent, start, nt.tr.now(), err != nil)
		return v, err
	}))
}

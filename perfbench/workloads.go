package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"fleet/internal/aggtree"
	"fleet/internal/iprof"
	"fleet/internal/learning"
	"fleet/internal/pipeline"
	"fleet/internal/protocol"
	"fleet/internal/sched"
	"fleet/internal/server"
	"fleet/internal/service"
	"fleet/internal/spec"
	"fleet/internal/stream"
	"fleet/internal/worker"
)

// Transports a workload reaches the serving stack through.
const (
	viaHTTP   = "http"
	viaStream = "stream"
	viaInproc = "inproc"
)

// workload is one named traffic mix. Workloads are chosen so that each
// layer does most of the work on one of them and little on another (see
// README.md for the layer → metric → workload table).
type workload struct {
	name      string
	transport string
	codec     protocol.Codec
	// compress is the devices' uplink chain ("" sends dense gradients).
	compress string
	devices  int
	// k is the root's aggregation window; deltaHistory its delta depth
	// (0: the server default).
	k, deltaHistory int
	// fullPulls makes devices always download the full model.
	fullPulls bool
	// openRate is the open loop's Poisson arrival rate (rounds/s), fixed at
	// a fifth to a third of the closed-loop round rate a full run sustains
	// on a 2-vCPU host. At half, two clients queue often enough that a
	// run's latency is set by its few longest bursts and moves 40-180%
	// between runs.
	openRate float64
	// In process, two aggtree edges (window fanIn) stand between devices
	// and root, each with the admission chain and pipeline below; devices
	// fall into speed tiers.
	fanIn      int
	edgeStages []string
	edgeAgg    string
	admission  string
	tiers      []tier
}

// The learning configuration every node shares: Equation 3's γ and
// AdaSGD's straggler percentile, bootstrap length and staleness history
// (the library default, stated because warmState fills it).
const (
	learningRate      = 0.005
	nonStragglerPct   = 99.7
	adaBootstrapSteps = 50
	adaHistory        = 16384
)

// newAdaSGD builds one node's AdaSGD and registers it for warmState.
func (e *env) newAdaSGD() *learning.AdaSGD {
	a := learning.NewAdaSGD(learning.AdaSGDConfig{NonStragglerPct: nonStragglerPct, BootstrapSteps: adaBootstrapSteps, MaxHistory: adaHistory})
	e.algos = append(e.algos, a)
	return a
}

// warmState brings every AdaSGD staleness history to its capacity by
// repeating the staleness the warm-up observed, as a server restored from
// a long run's checkpoint holds it. Until the history is full each push's
// cost grows with it (τ_thres sorts the whole history), which drifted CPU
// per push by 1.6× within one 36-second run.
func (e *env) warmState() {
	for _, a := range e.algos {
		st := a.ExportState()
		seen := st.Staleness.Values
		if len(seen) == 0 {
			continue
		}
		full := make([]int, adaHistory)
		for i := range full {
			full[i] = seen[i%len(seen)]
		}
		a.RestoreState(learning.AdaSGDState{Seen: max(st.Seen, adaHistory), Staleness: learning.StalenessState{Values: full}})
	}
}

var workloads = []workload{
	// The default deployment: codec and HTTP do nearly all the work, so
	// wire changes show here and server-core changes should not.
	{
		name:      "http-dense-gob",
		transport: viaHTTP,
		codec:     protocol.GobGzip,
		devices:   64,
		k:         2,
		fullPulls: true,
		openRate:  50,
	},
	// The same server layers used differently: sparse scatter writes and
	// delta reads; the work moves to stream framing, flat's small-message
	// fallback and drain-time publication.
	{
		name:         "stream-sparse-flat",
		transport:    viaStream,
		codec:        protocol.Flat,
		compress:     "topk(120),q8",
		devices:      12,
		k:            2,
		deltaHistory: 8,
		openRate:     225,
	},
	// No wire: admission, pipeline stages, robust drain, model apply,
	// snapshot publication and the duplicated root/edge ingress do the
	// work, so wire changes must show no effect here. similarity(1) keeps
	// the policy in the chain without rejecting: below 1 a fresh node
	// rejects every task (LabelTracker.Similarity is 1 before any push),
	// so no push could ever land. The slow tier fails min-batch instead.
	{
		name:         "inproc-tree-robust",
		transport:    viaInproc,
		compress:     "topk(120)",
		devices:      64,
		k:            2,
		deltaHistory: 8,
		openRate:     800,
		fanIn:        4,
		edgeStages:   []string{"staleness", "norm-filter(1000)"},
		edgeAgg:      "trimmed(1)",
		admission:    "iprof-time(1),min-batch(16),similarity(1)",
		tiers:        []tier{{factor: 1, weight: 0.5}, {factor: 2, weight: 0.3}, {factor: 8, weight: 0.2}},
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// edgeIDBase numbers the edges' upstream worker ids, clear of device ids.
const edgeIDBase = 1 << 20

// sessionIDBase numbers the stream sessions' hello worker ids.
const sessionIDBase = 1 << 21

// env is one assembled serving stack plus the two clients driving it.
type env struct {
	w     workload
	in    *inputs
	seed  int64
	root  *server.Server
	edges []*aggtree.Node
	// front is each client's service: the transport client (or, in
	// process, a router onto the edges), traced when tracing.
	front   [2]service.Service
	streams [2]*stream.Client
	wire    *protocol.WireCounter
	dials   atomic.Int64

	// algos are the nodes' AdaSGD instances (root first).
	algos []*learning.AdaSGD

	tr      *tracer
	rootTr  *nodeTrace
	edgeTr  []*nodeTrace
	clients [2]*clientTrace

	closers []func() error
}

// setupTimes splits one set-up into its three parts.
type setupTimes struct {
	inputs, assemble, connect time.Duration
}

func (s setupTimes) total() time.Duration { return s.inputs + s.assemble + s.connect }

// assemble builds the workload's nodes from the repository's public
// constructors and binds their front doors. With tr non-nil every layer
// boundary is wrapped; otherwise nothing is.
func assemble(w workload, in *inputs, seed int64, tr *tracer) (*env, error) {
	e := &env{w: w, in: in, seed: seed, tr: tr, wire: &protocol.WireCounter{}}
	if tr != nil {
		e.rootTr = tr.node()
		for c := range e.clients {
			e.clients[c] = tr.client()
		}
	}
	algo := e.newAdaSGD()
	stage, err := pipeline.NewStalenessScale(algo)
	if err != nil {
		return nil, err
	}
	var rootStage pipeline.Stage = stage
	var rootAgg pipeline.WindowAggregator = pipeline.NewMeanWindow(1)
	if tr != nil {
		rootStage = e.rootTr.stage(rootStage, "staleness")
		rootAgg = e.rootTr.aggregator(rootAgg, true)
	}
	// The root admits everything: the default chain with no SLO set.
	rootAdmission, err := admissionChain("", sched.BuildOptions{}, e.rootTr)
	if err != nil {
		return nil, err
	}
	pipe, err := pipeline.New(rootAgg, rootStage)
	if err != nil {
		return nil, err
	}
	e.root, err = server.New(server.Config{
		Arch:         arch,
		Algorithm:    algo,
		LearningRate: learningRate,
		K:            w.k,
		Pipeline:     pipe,
		Admission:    rootAdmission,
		DeltaHistory: w.deltaHistory,
		Seed:         modelSeed,
	})
	if err != nil {
		return nil, err
	}
	e.closers = append(e.closers, e.root.Close)
	var core service.Service = e.root
	if tr != nil {
		core = service.Chain(core, e.rootTr.interceptor(spServerPull, spServerPush))
	}

	switch w.transport {
	case viaHTTP:
		err = e.bindHTTP(core)
	case viaStream:
		err = e.bindStream(core)
	case viaInproc:
		err = e.bindTree(core)
	default:
		err = fmt.Errorf("unknown transport %q", w.transport)
	}
	if err != nil {
		_ = e.close()
		return nil, err
	}
	return e, nil
}

// clientCodec is client c's wire codec, traced when tracing.
func (e *env) clientCodec(c int) protocol.Codec {
	if e.tr == nil {
		return e.w.codec
	}
	return tracedCodec{Codec: e.w.codec, ct: e.clients[c]}
}

// clientFront wraps client c's service in its call tracer when tracing.
func (e *env) clientFront(c int, svc service.Service) service.Service {
	if e.tr == nil {
		return svc
	}
	return service.Chain(svc, e.clients[c].interceptor())
}

func (e *env) bindHTTP(core service.Service) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	h := server.NewHandler(core)
	if e.tr != nil {
		h = e.tr.handler(h)
	}
	hs := &http.Server{Handler: h}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = hs.Serve(ln)
	}()
	e.closers = append(e.closers, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := hs.Shutdown(ctx)
		<-served
		return err
	})
	for c := range e.front {
		// Polling phones hold no pooled socket: one dial per request.
		tr := &http.Transport{
			DisableKeepAlives: true,
			DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
				e.dials.Add(1)
				var d net.Dialer
				return d.DialContext(ctx, network, addr)
			},
		}
		e.closers = append(e.closers, func() error { tr.CloseIdleConnections(); return nil })
		e.front[c] = e.clientFront(c, &worker.Client{
			BaseURL:    "http://" + ln.Addr().String(),
			HTTPClient: &http.Client{Transport: tr},
			Codec:      e.clientCodec(c),
			Wire:       e.wire,
		})
	}
	return nil
}

func (e *env) bindStream(core service.Service) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ss := stream.NewServer(core, stream.Options{})
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = ss.Serve(ln)
	}()
	hook := ss.Broadcast
	if e.tr != nil {
		hook = e.rootTr.snapshotHook(spBroadcast, hook)
	}
	e.root.OnSnapshot(hook)
	e.closers = append(e.closers, func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		err := ss.Shutdown(ctx)
		<-served
		return err
	})
	for c := range e.front {
		sc := &stream.Client{
			Addr:         ln.Addr().String(),
			Codec:        e.clientCodec(c),
			WorkerID:     sessionIDBase + c,
			Subscribe:    true,
			PingInterval: -1,
			Wire:         e.wire,
		}
		e.streams[c] = sc
		e.closers = append(e.closers, sc.Close)
		e.front[c] = e.clientFront(c, sc)
	}
	return nil
}

func (e *env) bindTree(core service.Service) error {
	w := e.w
	var fronts []service.Service
	for i := 0; i < 2; i++ {
		var nt *nodeTrace
		if e.tr != nil {
			nt = e.tr.node()
			e.edgeTr = append(e.edgeTr, nt)
		}
		algo := e.newAdaSGD()
		opts := pipeline.BuildOptions{Algorithm: algo, Seed: e.seed}
		var stages []pipeline.Stage
		for _, stageSpec := range w.edgeStages {
			st, err := pipeline.NewStage(stageSpec, opts)
			if err != nil {
				return err
			}
			if nt != nil {
				st = nt.stage(st, stageLabel(stageSpec))
			}
			stages = append(stages, st)
		}
		agg, err := pipeline.NewAggregator(w.edgeAgg, opts)
		if err != nil {
			return err
		}
		if nt != nil {
			agg = nt.aggregator(agg, false)
		}
		pipe, err := pipeline.New(agg, stages...)
		if err != nil {
			return err
		}
		prof, err := iprof.New(iprof.Config{Epsilon: 2e-4, RetrainEvery: 100}, e.in.timeObs)
		if err != nil {
			return err
		}
		admission, err := admissionChain(w.admission, sched.BuildOptions{TimeProfiler: prof}, nt)
		if err != nil {
			return err
		}
		upstream := core
		if nt != nil {
			upstream = nt.upstream(upstream)
		}
		node, err := aggtree.New(aggtree.Config{
			Upstream:     upstream,
			Arch:         arch,
			Algorithm:    algo,
			K:            w.fanIn,
			Pipeline:     pipe,
			Admission:    admission,
			TimeProfiler: prof,
			DeltaHistory: w.deltaHistory,
			ID:           edgeIDBase + i,
		})
		if err != nil {
			return err
		}
		e.edges = append(e.edges, node)
		var front service.Service = node
		if nt != nil {
			front = service.Chain(front, nt.interceptor(spEdgePull, spEdgePush))
		}
		fronts = append(fronts, front)
	}
	// The root announces every drain to the edges, which absorb the delta
	// instead of pulling it.
	relay := func(ann protocol.ModelAnnounce) {
		for _, ed := range e.edges {
			ed.AbsorbUpstreamAnnounce(ann)
		}
	}
	if e.tr != nil {
		relay = e.rootTr.snapshotHook(spRelay, relay)
	}
	e.root.OnSnapshot(relay)
	r := edgeRouter(fronts)
	for c := range e.front {
		e.front[c] = e.clientFront(c, r)
	}
	return nil
}

// admissionChain builds an admission chain from its spec, wrapping each
// member when nt is non-nil.
func admissionChain(chainSpec string, opts sched.BuildOptions, nt *nodeTrace) (*sched.Chain, error) {
	var policies []sched.AdmissionPolicy
	if strings.TrimSpace(chainSpec) != "" {
		for _, s := range spec.Split(chainSpec) {
			p, err := sched.NewPolicy(s, opts)
			if err != nil {
				return nil, err
			}
			if nt != nil {
				p = nt.policy(p, len(policies) == 0)
			}
			policies = append(policies, p)
		}
	}
	return sched.NewChain(policies...), nil
}

// timeSLO is the SLO of the chain's iprof-time policy, which the edges'
// I-Prof is pretrained for; 0 when the chain has none.
func timeSLO(chainSpec string) (float64, error) {
	if strings.TrimSpace(chainSpec) == "" {
		return 0, nil
	}
	for _, s := range spec.Split(chainSpec) {
		name, args, err := spec.Parse(s)
		if err != nil {
			return 0, err
		}
		if name == "iprof-time" && len(args) == 1 {
			return args[0], nil
		}
	}
	return 0, nil
}

// connect establishes every client's path to the server before timing:
// stream sessions dial, edges sync their model, HTTP answers a stats probe.
func (e *env) connect(ctx context.Context) error {
	for _, ed := range e.edges {
		if err := ed.Sync(ctx); err != nil {
			return err
		}
	}
	for c, f := range e.front {
		if _, err := f.Stats(ctx); err != nil {
			return fmt.Errorf("client %d: %w", c, err)
		}
	}
	return nil
}

func (e *env) close() error {
	var errs []error
	for i := len(e.closers) - 1; i >= 0; i-- {
		errs = append(errs, e.closers[i]())
	}
	e.closers = nil
	return errors.Join(errs...)
}

// edgeOf is the edge serving device id: devices alternate between edges
// within each client's share, so both clients load both edges.
func edgeOf(id int) int { return (id / 2) % 2 }

// edgeRouter sends each device's calls to its edge.
type edgeRouter []service.Service

func (r edgeRouter) RequestTask(ctx context.Context, req *protocol.TaskRequest) (*protocol.TaskResponse, error) {
	return r[edgeOf(req.WorkerID)].RequestTask(ctx, req)
}

func (r edgeRouter) PushGradient(ctx context.Context, push *protocol.GradientPush) (*protocol.PushAck, error) {
	return r[edgeOf(push.WorkerID)].PushGradient(ctx, push)
}

func (r edgeRouter) Stats(ctx context.Context) (*protocol.Stats, error) {
	return r[0].Stats(ctx)
}

// stageLabel turns a stage spec into a metric-name segment: "norm-filter(1000)"
// → "norm-filter".
func stageLabel(spec string) string {
	for i, r := range spec {
		if r == '(' {
			return spec[:i]
		}
	}
	return spec
}

// setup generates the inputs and assembles and connects the stack, timing
// each part. Inputs are regenerated every time: their cost is set-up.
func setup(w workload, seed int64, openSeconds float64, tr *tracer) (*env, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	in, err := makeInputs(w, seed, openSeconds)
	if err != nil {
		return nil, st, err
	}
	t1 := time.Now()
	e, err := assemble(w, in, seed, tr)
	if err != nil {
		return nil, st, err
	}
	t2 := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := e.connect(ctx); err != nil {
		_ = e.close()
		return nil, st, err
	}
	st = setupTimes{inputs: t1.Sub(t0), assemble: t2.Sub(t1), connect: time.Since(t2)}
	return e, st, nil
}

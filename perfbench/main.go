// Command perfbench is FLeet's serving benchmark. It assembles the root
// server (and, for the tree workload, two aggtree edges) from the
// repository's public constructors, reaches them through their real front
// doors — server.NewHandler over a localhost listener, stream sessions, or
// direct service calls — and drives them from two client goroutines:
//
//   - closed loop: both clients run rounds back to back (capacity);
//   - open loop: rounds arrive at seeded Poisson times at a fixed rate,
//     each timed from its due time (latency).
//
// A round is one device's task pull (patching its model cache) followed by
// the push of its precomputed gradient. Every input — gradients of the
// MNIST CNN on synthetic partitions, device tiers, arrival times — is
// generated from --seed before timing.
//
// Usage:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// The last line of standard output is one JSON object: {correct,
// attempted, failed, metrics}. --trace 0 reports the end-to-end metrics;
// --trace 1 runs the same program with every layer boundary wrapped and
// reports the per-layer metrics (README.md lists them with the end-to-end
// metric and workload each one targets).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setups is how many times a run sets up; setup_s is their median.
const setups = 7

// warmup runs before every measured phase, untimed; its staleness
// observations seed warmState.
const warmup = 500 * time.Millisecond

// traceDir is where a traced run writes its spans, inside the checkout.
const traceDir = ".bench_build/traces"

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: http-dense-gob, stream-sparse-flat or inproc-tree-robust")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 30, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %g, trace %d): %v\n", *name, *seconds, *trace, err)
		return 2
	}
	total := time.Duration(*seconds * float64(time.Second))
	var res *result
	if *trace == 1 {
		res, err = runTraced(w, *seed, total, stdout)
	} else {
		res, err = runUntraced(w, *seed, total, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// setupMedian sets up `setups` times, keeping the last env, and returns
// the median of each part and of the whole. Each set-up starts from a
// collected heap, so none pays for the garbage of the one before.
func setupMedian(w workload, seed int64, openSeconds float64) (*env, setupTimes, time.Duration, error) {
	var e *env
	var ins, asm, con, tot []time.Duration
	for i := 0; i < setups; i++ {
		if e != nil {
			if err := e.close(); err != nil {
				return nil, setupTimes{}, 0, err
			}
		}
		runtime.GC()
		var st setupTimes
		var err error
		if e, st, err = setup(w, seed, openSeconds, nil); err != nil {
			return nil, setupTimes{}, 0, err
		}
		ins, asm, con = append(ins, st.inputs), append(asm, st.assemble), append(con, st.connect)
		tot = append(tot, st.total())
	}
	// Collect the last set-up's garbage before anything is measured.
	runtime.GC()
	return e, setupTimes{inputs: median(ins), assemble: median(asm), connect: median(con)}, median(tot), nil
}

// runUntraced measures the end-to-end metrics: two thirds of the time in
// the closed loop, the rest in the open loop, alternating. The open loop's
// latencies are printed, not reported: wall-clock latency on a shared host
// moved more between runs than any bound the benchmark may set (see
// README.md); the traced run reports them per layer.
func runUntraced(w workload, seed int64, total time.Duration, out io.Writer) (res *result, err error) {
	openDur := total / 3
	closedDur := total - openDur
	e, _, setupS, err := setupMedian(w, seed, openDur.Seconds())
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := e.close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	ctx := context.Background()
	d := newDriver(e)
	d.closed(ctx, warmup)
	e.warmState()
	slices, opens, _ := d.alternate(ctx, closedDur, openDur, nil, 0)
	cl, op := sum(slices), sum(opens)
	checkErr := d.check(ctx)
	rss, err := peakRSS()
	if err != nil {
		return nil, err
	}

	perSec, cpuMs := sliceRates(slices)
	m := metrics{}
	m.set("pushes_per_s", "1/s", medianOf(perSec))
	m.set("cpu_ms_per_push", "ms", medianOf(cpuMs))
	m.set("rss_peak_mb", "MiB", float64(rss)/(1<<20))
	m.set("setup_s", "s", setupS.Seconds())

	fmt.Fprintf(out, "%s seed %d: closed %.1fs: %d pushes, %d rejects; open %.1fs at %g/s: %d scheduled, %d pushes, %d rejects, %d unsent\n",
		w.name, seed, cl.elapsed.Seconds(), cl.pushes, cl.rejects, op.elapsed.Seconds(), w.openRate, op.scheduled, op.pushes, op.rejects, op.unsent)
	reportOpen(out, op)
	return finish(out, m, checkErr, cl, op), nil
}

// reportOpen prints the open loop's sample counts, latency and generator
// lateness, flagging a run whose generator fell behind. It returns the flag
// and how many samples lie beyond the p99.
func reportOpen(out io.Writer, op *phase) (behind bool, beyond int) {
	n := len(op.latencies)
	beyond = n - int(0.99*float64(n)+0.999999999)
	p99 := fmt.Sprintf("p99 %.3f ms with %d samples beyond it", ms(quantile(op.latencies, 0.99)), beyond)
	if beyond < 10 {
		p99 = fmt.Sprintf("no p99 (%d samples would lie beyond it)", beyond)
	}
	fmt.Fprintf(out, "round latency over all open slices: n=%d, p50 %.3f ms, %s; generator lateness p50 %.3f ms, p99 %.3f ms\n",
		n, ms(quantile(op.latencies, 0.50)), p99, ms(quantile(op.lateness, 0.50)), ms(quantile(op.lateness, 0.99)))
	behind = op.unsent > 0 || quantile(op.lateness, 0.99) > maxLateness
	if behind {
		fmt.Fprintf(out, "FLAG: open-loop generator fell behind (%d rounds unsent, lateness p99 %.1f ms > %v): round latencies understate the load\n",
			op.unsent, ms(quantile(op.lateness, 0.99)), maxLateness)
	}
	return behind, beyond
}

// maxLateness is the generator lateness p99 past which the open loop no
// longer sends on schedule: the backlog, not the server, sets latency.
const maxLateness = 200 * time.Millisecond

// finish assembles the result: correct when every output check passed;
// unsent open-loop rounds count as attempted and failed.
func finish(out io.Writer, m metrics, checkErr error, phases ...*phase) *result {
	res := &result{Correct: checkErr == nil, Metrics: m}
	for _, p := range phases {
		res.Attempted += p.attempts + p.unsent
		res.Failed += p.failures + p.unsent
		if p.firstErr != nil {
			fmt.Fprintf(out, "first failed call: %v\n", p.firstErr)
		}
	}
	if checkErr != nil {
		fmt.Fprintf(out, "CHECK FAILED: %v\n", checkErr)
	}
	return res
}

// runTraced measures the per-layer metrics. The untraced stack first runs
// alone in the closed loop for a ninth of the time: the runtime figures,
// taken before the tracer or a traced node exists, so no span store or
// second stack shares the heap they measure. Then the same inputs drive a
// second stack with every layer boundary wrapped: its closed slices (a
// ninth) and open slices (two thirds) interleave with closed slices on the
// untraced stack (a ninth), the tracing-overhead baseline. The baseline is
// interleaved rather than taken from the first phase because CPU per push
// drifts over a run, by more than the overhead, in either direction.
func runTraced(w workload, seed int64, total time.Duration, out io.Writer) (*result, error) {
	aloneDur, baseDur, closedDur := total/9, total/9, total/9
	openDur := total - aloneDur - baseDur - closedDur
	e, parts, _, err := setupMedian(w, seed, openDur.Seconds())
	if err != nil {
		return nil, err
	}
	defer func() { _ = e.close() }()
	ctx := context.Background()
	d := newDriver(e)
	d.closed(ctx, warmup)
	e.warmState()
	alone := d.closed(ctx, aloneDur)
	aloneHeap := heapInUse()

	tr := newTracer()
	te, err := assemble(w, e.in, seed, tr)
	if err != nil {
		return nil, err
	}
	defer func() { _ = te.close() }()
	if err := te.connect(ctx); err != nil {
		return nil, err
	}
	td := newDriver(te)
	td.closed(ctx, warmup)
	te.warmState()

	from := tr.now()
	_, v0 := te.root.Model()
	c0 := te.counters()
	slices, opens, baseSlices := td.alternate(ctx, closedDur, openDur, d, baseDur)
	cl, op, base := sum(slices), sum(opens), sum(baseSlices)
	sharedHeap := heapInUse()
	_, v1 := te.root.Model()
	c1 := te.counters()
	to := tr.now()
	checkErr := errors.Join(d.check(ctx), td.check(ctx))
	// Shutting the servers down waits for their handlers, so every span
	// is stored before the trace is read.
	if err := errors.Join(e.close(), te.close()); err != nil {
		return nil, err
	}

	stats := spanStats(tr, from, to)
	pushes := cl.pushes + op.pushes
	windows := v1 - v0
	get := func(name string) *nameStats {
		if ns := stats[name]; ns != nil {
			return ns
		}
		return &nameStats{}
	}
	clientSelf := get(spClientPull).self + get(spClientPush).self

	m := metrics{}
	m.set("protocol.encode_us_per_push", "us", per(us(get(spEncode).self), pushes))
	m.set("protocol.decode_us_per_push", "us", per(us(get(spDecode).self+get(spDecodeAnnounce).self), pushes))
	m.set("protocol.uplink_bytes_per_push", "bytes", per(float64(cl.wireUp+op.wireUp), pushes))
	m.set("protocol.downlink_bytes_per_push", "bytes", per(float64(cl.wireDown+op.wireDown), pushes))
	m.set("protocol.wire_kb_per_push", "KiB", per(float64(cl.wireUp+op.wireUp+cl.wireDown+op.wireDown)/1024, pushes))
	m.set("server.http_self_us_per_push", "us", per(us(get(spHTTP).self), pushes))
	m.set("server.pull_us_p50", "us", us(median(get(spServerPull).durs)))
	m.set("server.push_us_p50", "us", us(median(get(spServerPush).durs)))
	m.set("server.push_self_us", "us", per(us(get(spServerPush).self), get(spServerPush).count))
	m.set("server.calls", "count", float64(get(spServerPull).count+get(spServerPush).count))
	m.set("server.errors", "count", float64(get(spServerPull).failed+get(spServerPush).failed))
	m.set("server.publish_us_per_window", "us", per(us(get(spPublish).dur), windows))
	m.set("server.windows", "count", float64(windows))
	m.set("server.delta_pull_ratio", "ratio", per(float64(cl.deltaPulls+op.deltaPulls), cl.pulls+op.pulls))
	streamSelf, workerSelf := time.Duration(0), time.Duration(0)
	switch w.transport {
	case viaStream:
		streamSelf = clientSelf
	case viaHTTP:
		workerSelf = clientSelf
	}
	m.set("stream.transport_us_per_push", "us", per(us(streamSelf), pushes))
	m.set("stream.broadcast_us_per_window", "us", per(us(get(spBroadcast).dur), windows))
	m.set("stream.announce_bytes_per_window", "bytes", per(float64(c1.announceBytes-c0.announceBytes), windows))
	m.set("worker.transport_us_per_push", "us", per(us(workerSelf), pushes))
	m.set("worker.dials_per_push", "count", per(float64(cl.dials+op.dials), pushes))
	m.set("sched.admit_us_p50", "us", us(median(get(spAdmit).perParent())))
	m.set("sched.admit_calls", "count", float64(c1.admits-c0.admits))
	m.set("sched.reject_ratio", "ratio", per(float64(c1.rejects-c0.rejects), int(c1.admits-c0.admits)))
	for _, st := range []string{"staleness", "norm-filter"} {
		ns := get("pipeline.stage." + st)
		m.set("pipeline.stage."+st+"_us", "us", per(us(ns.dur), ns.count))
	}
	m.set("pipeline.add_us", "us", per(us(get(spAdd).dur), get(spAdd).count))
	m.set("pipeline.sparse_add_ratio", "ratio", per(float64(c1.sparseAdds-c0.sparseAdds), int(c1.adds-c0.adds)))
	m.set("pipeline.drain_us_per_window", "us", per(us(get(spDrain).self), get(spDrain).count))
	m.set("pipeline.stage_rejects", "count", float64(c1.stageRejects-c0.stageRejects))
	m.set("nn.apply_us_per_window", "us", per(us(get(spApply).dur), get(spApply).count))
	m.set("aggtree.push_us_p50", "us", us(median(get(spEdgePush).durs)))
	m.set("aggtree.pull_us_p50", "us", us(median(get(spEdgePull).durs)))
	m.set("aggtree.forward_us_per_window", "us", per(us(get(spForward).dur), get(spForward).count))
	m.set("aggtree.root_pushes_per_leaf_push", "ratio", per(float64(c1.upstreamPushes-c0.upstreamPushes), pushes))
	m.set("aggtree.lost_windows", "count", float64(c1.lostWindows))
	m.set("aggtree.resyncs", "count", float64(c1.resyncs))
	m.set("runtime.alloc_kb_per_push", "KiB", per(float64(alone.mem.alloc)/1024, alone.pushes))
	m.set("runtime.gc_cycles_per_1k_push", "count", per(1000*float64(alone.mem.gcs), alone.pushes))
	m.set("runtime.gc_pause_p99_us", "us", us(quantile(alone.mem.pauses, 0.99)))
	m.set("setup.inputs_s", "s", parts.inputs.Seconds())
	m.set("setup.assemble_s", "s", parts.assemble.Seconds())
	m.set("setup.connect_s", "s", parts.connect.Seconds())
	m.set("bench.gen_lag_p99_ms", "ms", ms(quantile(op.lateness, 0.99)))
	m.set("bench.round_p50_ms", "ms", medianOf(sliceP50s(opens)))
	m.set("bench.round_p99_ms", "ms", ms(quantile(op.latencies, 0.99)))
	_, baseCPUs := sliceRates(baseSlices)
	_, tracedCPUs := sliceRates(slices)
	baseCPU, tracedCPU := medianOf(baseCPUs), medianOf(tracedCPUs)
	m.set("bench.trace_overhead_cpu_ms_per_push", "ms", tracedCPU-baseCPU)
	m.set("bench.error_ratio", "ratio", per(float64(cl.failures+op.failures+op.unsent), cl.attempts+op.attempts+op.unsent))
	m.set("bench.spans_dropped", "count", float64(tr.dropped.Load()))

	fmt.Fprintf(out, "%s seed %d (traced): closed %d pushes, open %d pushes, %d windows, %d spans\n",
		w.name, seed, cl.pushes, op.pushes, windows, tr.nextID.Load())
	fmt.Fprintf(out, "untraced stack alone: %d pushes, %.4f cpu_ms_per_push, heap in use %.1f MiB at its end\n",
		alone.pushes, per(ms(alone.cpu), alone.pushes), float64(aloneHeap)/(1<<20))
	fmt.Fprintf(out, "tracing overhead: cpu_ms_per_push traced %.4f - interleaved untraced %.4f = %.4f ms; the untraced slices shared a heap of %.1f MiB (both stacks and %d spans)\n",
		tracedCPU, baseCPU, tracedCPU-baseCPU, float64(sharedHeap)/(1<<20), tr.nextID.Load())
	behind, beyond := reportOpen(out, op)
	if beyond < 10 {
		fmt.Fprintf(out, "FLAG: bench.round_p99_ms has only %d samples beyond it (want >= 10)\n", beyond)
	}
	m.set("bench.gen_behind", "count", boolMetric(behind))
	share := busyTable(out, stats, w.transport, pushes)
	m.set("bench.wire_busy_share", "ratio", share["protocol"]+share["server.http"]+share["worker"]+share["stream"])
	if tr.dropped.Load() > 0 {
		fmt.Fprintf(out, "FLAG: %d spans dropped past the %d-span store: per-layer figures cover part of the run\n", tr.dropped.Load(), maxSpans)
	}
	if err := tr.writeSpans(filepath.Join(traceDir, w.name+".spans")); err != nil {
		return nil, err
	}
	return finish(out, m, checkErr, alone, base, cl, op), nil
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// nodeCounters sums the traced nodes' counters and the edges' own.
type nodeCounters struct {
	adds, sparseAdds, admits, rejects, stageRejects int64
	upstreamPushes, lostWindows, resyncs            int64
	announceBytes                                   int64
}

func (e *env) counters() nodeCounters {
	var c nodeCounters
	for _, nt := range append([]*nodeTrace{e.rootTr}, e.edgeTr...) {
		c.adds += nt.adds.Load()
		c.sparseAdds += nt.sparseAdds.Load()
		c.admits += nt.admits.Load()
		c.rejects += nt.rejects.Load()
		c.stageRejects += nt.stageRejects.Load()
	}
	for _, ed := range e.edges {
		c.upstreamPushes += ed.UpstreamPushes()
		c.lostWindows += ed.LostWindows()
		c.resyncs += ed.Resyncs()
	}
	for _, ct := range e.clients {
		c.announceBytes += ct.announceBytes.Load()
	}
	return c
}

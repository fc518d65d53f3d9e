package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"fleet/internal/protocol"
	"fleet/internal/service"
	"fleet/internal/simrand"
)

// deviceState is a simulated phone: its inputs plus the model cache it
// patches from delta pulls and stream announces.
type deviceState struct {
	in      *deviceInput
	params  []float64
	version int
	epoch   int64
	cached  bool
}

// request is the device's task request: by delta against its cache
// unless the workload pulls full models.
func (d *deviceState) request(fullPulls bool) *protocol.TaskRequest {
	req := &protocol.TaskRequest{
		WorkerID:     d.in.id,
		DeviceModel:  d.in.model,
		TimeFeatures: d.in.features,
		LabelCounts:  d.in.labels,
	}
	if d.cached && !fullPulls {
		req.KnownVersion, req.KnownEpoch, req.WantDelta = d.version, d.epoch, true
	}
	return req
}

// absorbModel updates the cache from an accepted task response.
func (d *deviceState) absorbModel(resp *protocol.TaskResponse) error {
	if resp.ParamsDelta != nil {
		if !d.cached || resp.ServerEpoch != d.epoch || resp.DeltaBase != d.version {
			return fmt.Errorf("device %d: delta from (%d, v%d) onto cache (%d, v%d, cached=%v)",
				d.in.id, resp.ServerEpoch, resp.DeltaBase, d.epoch, d.version, d.cached)
		}
		if err := resp.ParamsDelta.Patch(d.params); err != nil {
			d.cached = false
			return err
		}
		d.version = resp.ModelVersion
		return nil
	}
	if d.params == nil {
		d.params = make([]float64, len(resp.Params))
	}
	if len(resp.Params) != len(d.params) {
		return fmt.Errorf("device %d: served %d params, cache holds %d", d.in.id, len(resp.Params), len(d.params))
	}
	copy(d.params, resp.Params)
	d.version, d.epoch, d.cached = resp.ModelVersion, resp.ServerEpoch, true
	return nil
}

// absorbAnnounce applies one announce of a session's delta chain; false
// ends the walk (a gap the next pull repairs).
func (d *deviceState) absorbAnnounce(ann protocol.ModelAnnounce) bool {
	if !d.cached || ann.ServerEpoch != d.epoch {
		return false
	}
	if ann.ModelVersion <= d.version {
		return true
	}
	if ann.Delta == nil || ann.DeltaBase != d.version {
		return false
	}
	if err := ann.Delta.Patch(d.params); err != nil {
		d.cached = false
		return false
	}
	d.version = ann.ModelVersion
	return true
}

// tally counts one client's outcomes in one phase.
type tally struct {
	attempts, failures  int
	pushes, rejects     int
	pulls, deltaPulls   int
	unsent              int
	firstErr            error
	latencies, lateness []time.Duration
}

func (t *tally) fail(err error) {
	t.failures++
	if t.firstErr == nil {
		t.firstErr = err
	}
}

func (t *tally) merge(o *tally) {
	t.attempts += o.attempts
	t.failures += o.failures
	t.pushes += o.pushes
	t.rejects += o.rejects
	t.pulls += o.pulls
	t.deltaPulls += o.deltaPulls
	t.unsent += o.unsent
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
	t.latencies = append(t.latencies, o.latencies...)
	t.lateness = append(t.lateness, o.lateness...)
}

// phase is one timed stretch of load.
type phase struct {
	tally
	elapsed   time.Duration
	cpu       time.Duration
	mem       memDelta
	wireUp    int64
	wireDown  int64
	dials     int64
	scheduled int
}

// driver runs rounds against an env: pull (patching the device cache),
// then push the device's precomputed gradient.
type driver struct {
	e    *env
	devs []*deviceState
	// own lists each client's devices; a device belongs to one client, so
	// no device ever has two rounds in flight.
	own   [2][]*deviceState
	picks [2]*rand.Rand
	// fence makes announce delivery part of the round order (one client,
	// deterministic runs): after each push, wait until the session has seen
	// the version the ack reports.
	fence bool

	acked     atomic.Int64
	edgeAcked [2]atomic.Int64
	roundName uint16
}

func newDriver(e *env) *driver {
	d := &driver{e: e}
	for i := range e.in.devices {
		dev := &deviceState{in: &e.in.devices[i]}
		d.devs = append(d.devs, dev)
		d.own[i%2] = append(d.own[i%2], dev)
	}
	for c := range d.picks {
		d.picks[c] = simrand.New(e.in.picks[c])
	}
	if e.tr != nil {
		d.roundName = e.tr.name(spRound)
	}
	return d
}

func (d *driver) pick(c int) *deviceState {
	own := d.own[c]
	return own[d.picks[c].Intn(len(own))]
}

// run performs one round for dev on client c, timed from due.
func (d *driver) run(ctx context.Context, c int, dev *deviceState, t *tally, due time.Time) {
	tr := d.e.tr
	if tr == nil {
		d.roundTrip(ctx, c, dev, t)
		return
	}
	ref := &spanRef{id: tr.newID(), round: tr.newRound()}
	d.roundTrip(withRef(ctx, ref), c, dev, t)
	tr.put(ref.id, span{start: int64(due.Sub(tr.base)), end: tr.now(), parent: -1, round: ref.round, name: d.roundName})
}

func (d *driver) roundTrip(ctx context.Context, c int, dev *deviceState, t *tally) {
	e := d.e
	front := e.front[c]
	if sc := e.streams[c]; sc != nil {
		// Drain the session's announce chain every round, as a worker
		// does; a chain left pending grows with the run.
		for _, ann := range sc.TakeAnnounces() {
			if !dev.absorbAnnounce(ann) {
				break
			}
		}
	}
	t.attempts++
	resp, err := front.RequestTask(ctx, dev.request(e.w.fullPulls))
	if err != nil {
		t.fail(err)
		return
	}
	if !resp.Accepted {
		t.rejects++
		return
	}
	if err := dev.absorbModel(resp); err != nil {
		t.fail(err)
		return
	}
	t.pulls++
	if resp.ParamsDelta != nil {
		t.deltaPulls++
	}
	push := dev.in.push
	push.ModelVersion, push.ModelEpoch = resp.ModelVersion, resp.ServerEpoch
	push.BatchSize = max(resp.BatchSize, 1)
	push.CompTimeSec = dev.in.alpha * float64(push.BatchSize)
	t.attempts++
	ack, err := front.PushGradient(ctx, &push)
	if err != nil {
		t.fail(err)
		return
	}
	if !ack.Applied {
		t.fail(fmt.Errorf("device %d: push acked but not applied", dev.in.id))
		return
	}
	t.pushes++
	d.acked.Add(1)
	if e.edges != nil {
		d.edgeAcked[edgeOf(dev.in.id)].Add(1)
	}
	if d.fence && e.streams[c] != nil {
		fctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		err := e.streams[c].WaitAnnounced(fctx, resp.ServerEpoch, ack.NewVersion)
		cancel()
		if err != nil {
			t.fail(fmt.Errorf("announce fence at v%d: %w", ack.NewVersion, err))
		}
	}
}

// measure runs body between snapshots of process CPU, memory and wire.
func (d *driver) measure(body func(*phase)) *phase {
	p := &phase{}
	m0 := readMem()
	up0, down0, dials0 := d.e.wire.Uplink(), d.e.wire.Downlink(), d.e.dials.Load()
	cpu0 := cpuTime()
	t0 := time.Now()
	body(p)
	p.elapsed = time.Since(t0)
	p.cpu = cpuTime() - cpu0
	p.mem = readMem().since(m0)
	p.wireUp = d.e.wire.Uplink() - up0
	p.wireDown = d.e.wire.Downlink() - down0
	p.dials = d.e.dials.Load() - dials0
	return p
}

// closed runs both clients back to back for dur: capacity.
func (d *driver) closed(ctx context.Context, dur time.Duration) *phase {
	return d.measure(func(p *phase) {
		deadline := time.Now().Add(dur)
		var ts [2]tally
		var wg sync.WaitGroup
		for c := range ts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for time.Now().Before(deadline) && ctx.Err() == nil {
					d.run(ctx, c, d.pick(c), &ts[c], time.Now())
				}
			}()
		}
		wg.Wait()
		for c := range ts {
			p.merge(&ts[c])
		}
	})
}

// openGrace is how long after an open phase's end a due round may still
// start; rounds still unsent then are counted as failed.
const openGrace = 2 * time.Second

// open sends the rounds the inputs' Poisson arrivals schedule in [from,
// to), from the same two clients: whichever is free takes the next due
// round. Each round is timed from its due time, so waiting for a busy
// client counts.
func (d *driver) open(ctx context.Context, from, to time.Duration) *phase {
	var arrivals []time.Duration
	for _, a := range d.e.in.arrivals {
		if at := time.Duration(a * float64(time.Second)); at >= from && at < to {
			arrivals = append(arrivals, at-from)
		}
	}
	dur := to - from
	return d.measure(func(p *phase) {
		p.scheduled = len(arrivals)
		var next atomic.Int64
		t0 := time.Now()
		cutoff := t0.Add(dur + openGrace)
		var ts [2]tally
		var wg sync.WaitGroup
		for c := range ts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				t := &ts[c]
				for ctx.Err() == nil {
					i := int(next.Add(1) - 1)
					if i >= len(arrivals) {
						return
					}
					due := t0.Add(arrivals[i])
					if time.Now().After(cutoff) {
						t.unsent++
						continue
					}
					waitUntil(due)
					start := time.Now()
					failures := t.failures
					d.run(ctx, c, d.pick(c), t, due)
					if t.failures == failures {
						t.latencies = append(t.latencies, time.Since(due))
					}
					t.lateness = append(t.lateness, start.Sub(due))
				}
			}()
		}
		wg.Wait()
		for c := range ts {
			p.merge(&ts[c])
		}
	})
}

// spinWindow is how early before a due time the open loop stops sleeping
// and yields in a loop instead: the runtime's timer sleeps can overshoot
// by up to a millisecond, which would read as server latency.
const spinWindow = time.Millisecond

func waitUntil(due time.Time) {
	if wait := time.Until(due) - spinWindow; wait > 0 {
		time.Sleep(wait)
	}
	for time.Now().Before(due) {
		runtime.Gosched()
	}
}

// cycles is how many closed/open pairs a run alternates through, so that
// interference from outside the process lands on both kinds of phase and
// on few of the closed slices whose median is reported.
const cycles = 12

// alternate runs `cycles` pairs of a closed slice and an open slice,
// together closedDur and openDur long, and returns both kinds of slice.
// With base non-nil, each pair also runs a closed slice on base (together
// baseDur long), so the two drivers' closed slices interleave and drift
// from outside the process reaches both alike; which of the two follows
// the open slice alternates, as the first slice after a lightly loaded
// stretch runs slower.
func (d *driver) alternate(ctx context.Context, closedDur, openDur time.Duration, base *driver, baseDur time.Duration) (closed, open, baseClosed []*phase) {
	closedSlice, openSlice := closedDur/cycles, openDur/cycles
	for k := 0; k < cycles; k++ {
		if base != nil && k%2 == 0 {
			baseClosed = append(baseClosed, base.closed(ctx, baseDur/cycles))
		}
		closed = append(closed, d.closed(ctx, closedSlice))
		if base != nil && k%2 == 1 {
			baseClosed = append(baseClosed, base.closed(ctx, baseDur/cycles))
		}
		open = append(open, d.open(ctx, time.Duration(k)*openSlice, time.Duration(k+1)*openSlice))
	}
	return closed, open, baseClosed
}

// add folds another phase into p.
func (p *phase) add(o *phase) {
	p.merge(&o.tally)
	p.elapsed += o.elapsed
	p.cpu += o.cpu
	p.mem.alloc += o.mem.alloc
	p.mem.gcs += o.mem.gcs
	p.mem.pauses = append(p.mem.pauses, o.mem.pauses...)
	p.wireUp += o.wireUp
	p.wireDown += o.wireDown
	p.dials += o.dials
	p.scheduled += o.scheduled
}

// sum merges phases into one.
func sum(ps []*phase) *phase {
	out := &phase{}
	for _, p := range ps {
		out.add(p)
	}
	return out
}

// sliceP50s returns each open slice's median round latency in ms; a run
// reports their median, which one slice hit by interference from outside
// the process cannot move far.
func sliceP50s(ps []*phase) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, ms(quantile(p.latencies, 0.5)))
	}
	return out
}

// sliceRates returns each closed slice's pushes per second and CPU
// milliseconds per push; a run reports their medians.
func sliceRates(ps []*phase) (perSec, cpuMs []float64) {
	for _, p := range ps {
		perSec = append(perSec, float64(p.pushes)/p.elapsed.Seconds())
		cpuMs = append(cpuMs, per(ms(p.cpu), p.pushes))
	}
	return perSec, cpuMs
}

// check verifies the run's outputs; every failure is reported.
func (d *driver) check(ctx context.Context) error {
	e := d.e
	var errs []error
	for _, ed := range e.edges {
		if err := ed.Flush(ctx); err != nil {
			errs = append(errs, fmt.Errorf("edge flush: %w", err))
		}
	}
	st, err := e.root.Stats(ctx)
	if err != nil {
		return fmt.Errorf("root stats: %w", err)
	}
	acked := int(d.acked.Load())
	want, what := acked, "acked pushes"
	if e.edges != nil {
		want, what = 0, "edge upstream pushes"
		for i, ed := range e.edges {
			want += int(ed.UpstreamPushes())
			if lost := ed.LostWindows(); lost != 0 {
				errs = append(errs, fmt.Errorf("edge %d lost %d windows", i, lost))
			}
			est, err := ed.Stats(ctx)
			if err != nil {
				return fmt.Errorf("edge %d stats: %w", i, err)
			}
			if got := int(d.edgeAcked[i].Load()); est.GradientsIn != got {
				errs = append(errs, fmt.Errorf("edge %d: GradientsIn %d, acked leaf pushes %d", i, est.GradientsIn, got))
			}
		}
	}
	if st.GradientsIn != want {
		errs = append(errs, fmt.Errorf("root GradientsIn %d, %s %d", st.GradientsIn, what, want))
	}
	if st.ModelVersion != st.GradientsIn/e.w.k {
		errs = append(errs, fmt.Errorf("root ModelVersion %d, GradientsIn/K = %d/%d", st.ModelVersion, st.GradientsIn, e.w.k))
	}
	if st.DrainErrors != 0 {
		errs = append(errs, fmt.Errorf("root drain errors: %d", st.DrainErrors))
	}
	params, version := e.root.Model()
	for i, v := range params {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			errs = append(errs, fmt.Errorf("param %d is %v", i, v))
			break
		}
	}
	for _, dev := range d.devs {
		if !dev.cached {
			continue
		}
		if err := d.finalPull(ctx, dev, version); err != nil {
			errs = append(errs, err)
			continue
		}
		for i := range params {
			if math.Float64bits(dev.params[i]) != math.Float64bits(params[i]) {
				errs = append(errs, fmt.Errorf("device %d cache differs from the server's params at %d after its final pull", dev.in.id, i))
				break
			}
		}
	}
	return errors.Join(errs...)
}

// finalPull brings a device's cache to the root's version through its own
// front door (by delta when the workload pulls deltas), falling back to
// the root itself when an edge's admission declines or the edge lags.
func (d *driver) finalPull(ctx context.Context, dev *deviceState, version int) error {
	pull := func(svc service.Service) (bool, error) {
		resp, err := svc.RequestTask(ctx, dev.request(d.e.w.fullPulls))
		if err != nil {
			return false, err
		}
		if !resp.Accepted {
			return false, nil
		}
		return true, dev.absorbModel(resp)
	}
	ok, err := pull(d.e.front[dev.in.id%2])
	if err == nil && (!ok || dev.version != version) && d.e.edges != nil {
		ok, err = pull(d.e.root)
	}
	switch {
	case err != nil:
		return fmt.Errorf("device %d final pull: %w", dev.in.id, err)
	case !ok:
		return fmt.Errorf("device %d final pull rejected", dev.in.id)
	case dev.version != version:
		return fmt.Errorf("device %d at v%d after its final pull, root at v%d", dev.in.id, dev.version, version)
	}
	return nil
}

// memDelta is the Go runtime's memory activity over a phase.
type memDelta struct {
	alloc  uint64
	gcs    uint32
	pauses []time.Duration
}

type memSnap struct {
	alloc  uint64
	numGC  uint32
	pauses [256]uint64
}

func readMem() memSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memSnap{alloc: ms.TotalAlloc, numGC: ms.NumGC, pauses: ms.PauseNs}
}

// heapInUse is the bytes of live and not yet collected heap objects.
func heapInUse() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// since returns the activity from s0 to s; the runtime keeps the last 256
// pause times, so longer phases report the most recent 256.
func (s memSnap) since(s0 memSnap) memDelta {
	md := memDelta{alloc: s.alloc - s0.alloc, gcs: s.numGC - s0.numGC}
	for i := s.numGC; i > s0.numGC && s.numGC-i < 256; i-- {
		md.pauses = append(md.pauses, time.Duration(s.pauses[(i+255)%256]))
	}
	return md
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid buffer cannot fail.
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

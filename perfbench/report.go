package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// quantile is the q-quantile of xs by the nearest-rank method (xs is
// sorted in place); 0 for an empty sample.
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	i := int(q*float64(len(xs))+0.999999999) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []time.Duration) time.Duration { return quantile(xs, 0.5) }

// medianOf is the median of xs (the mean of the middle two for an even
// count); xs is sorted in place.
func medianOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// per divides, answering 0 for an empty denominator (a layer with no work).
func per(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

// peakRSS is the process's peak resident set (VmHWM), in bytes.
func peakRSS() (int64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb << 10, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// nameStats aggregates the spans of one name.
type nameStats struct {
	count  int
	failed int
	dur    time.Duration
	self   time.Duration
	durs   []time.Duration
	// byParent sums durations per parent span: one admission runs one
	// span per chain member.
	byParent map[int32]time.Duration
}

// perParent returns the per-parent duration sums.
func (ns *nameStats) perParent() []time.Duration {
	out := make([]time.Duration, 0, len(ns.byParent))
	for _, d := range ns.byParent {
		out = append(out, d)
	}
	return out
}

// spanStats aggregates the spans that started in [from, to): count,
// total duration, and total self time — duration minus the union of the
// intervals its child spans cover within it.
func spanStats(tr *tracer, from, to int64) map[string]*nameStats {
	spans := tr.spans()
	in := func(s *span) bool { return s.end > 0 && s.start >= from && s.start < to }
	// Children in CSR form: kids[first[p]:first[p+1]] are p's children.
	first := make([]int32, len(spans)+1)
	for i := range spans {
		if s := &spans[i]; in(s) && s.parent >= 0 && int(s.parent) < len(spans) {
			first[s.parent+1]++
		}
	}
	for i := 1; i < len(first); i++ {
		first[i] += first[i-1]
	}
	kids := make([]int32, first[len(spans)])
	fill := append([]int32(nil), first[:len(spans)]...)
	for i := range spans {
		if s := &spans[i]; in(s) && s.parent >= 0 && int(s.parent) < len(spans) {
			kids[fill[s.parent]] = int32(i)
			fill[s.parent]++
		}
	}
	out := map[string]*nameStats{}
	var iv [][2]int64
	for i := range spans {
		s := &spans[i]
		if !in(s) {
			continue
		}
		iv = iv[:0]
		for _, k := range kids[first[i]:first[i+1]] {
			c := &spans[k]
			lo, hi := max(c.start, s.start), min(c.end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, reach := int64(0), int64(s.start)
		for _, x := range iv {
			lo := max(x[0], reach)
			if x[1] > lo {
				covered += x[1] - lo
				reach = x[1]
			}
		}
		name := tr.names[s.name]
		ns := out[name]
		if ns == nil {
			ns = &nameStats{byParent: map[int32]time.Duration{}}
			out[name] = ns
		}
		d := time.Duration(s.end - s.start)
		ns.count++
		ns.dur += d
		ns.self += d - time.Duration(covered)
		ns.durs = append(ns.durs, d)
		if name == spAdmit {
			ns.byParent[s.parent] += d
		}
		if s.failed {
			ns.failed++
		}
	}
	return out
}

// layerOf maps a span name to the module whose busy time it counts
// toward. The load generator's client calls belong to the transport's
// client module; in process there is none, and they count as the bench's.
func layerOf(name, transport string) string {
	switch {
	case strings.HasPrefix(name, "client."):
		switch transport {
		case viaHTTP:
			return "worker"
		case viaStream:
			return "stream"
		}
		return "bench"
	case name == spHTTP:
		return "server.http"
	}
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// busyTable prints each layer's self time per push and its share of the
// total (the bench's own round spans excluded), and returns the shares.
func busyTable(out io.Writer, stats map[string]*nameStats, transport string, pushes int) map[string]float64 {
	busy := map[string]time.Duration{}
	var total time.Duration
	for name, ns := range stats {
		layer := layerOf(name, transport)
		if layer == "bench" {
			continue
		}
		busy[layer] += ns.self
		total += ns.self
	}
	layers := make([]string, 0, len(busy))
	for l := range busy {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return busy[layers[i]] > busy[layers[j]] })
	share := map[string]float64{}
	fmt.Fprintf(out, "busy time by layer (self time, traced phases, %d pushes):\n", pushes)
	for _, l := range layers {
		share[l] = float64(busy[l]) / float64(total)
		fmt.Fprintf(out, "  %-12s %9.1f us/push  %5.1f%%\n", l, per(us(busy[l]), pushes), 100*share[l])
	}
	return share
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// fixed runs n rounds on client 0 alone: the deterministic order the
// same-program test compares traced and untraced runs on.
func (d *driver) fixed(ctx context.Context, n int) *phase {
	return d.measure(func(p *phase) {
		for i := 0; i < n; i++ {
			d.run(ctx, 0, d.pick(0), &p.tally, time.Now())
		}
	})
}

// fixedRun drives n rounds from one client, with announce delivery fenced
// into the round order, and returns the root's final params and the wire
// bytes both ways. The env's outputs are checked as in a timed run.
func fixedRun(t *testing.T, w workload, seed int64, n int, tr *tracer) (params []float64, up, down int64, e *env) {
	t.Helper()
	e, _, err := setup(w, seed, 0, tr)
	if err != nil {
		t.Fatalf("%s: setup: %v", w.name, err)
	}
	t.Cleanup(func() {
		if err := e.close(); err != nil {
			t.Errorf("%s: close: %v", w.name, err)
		}
	})
	d := newDriver(e)
	d.fence = true
	ctx := context.Background()
	p := d.fixed(ctx, n)
	if p.failures != 0 {
		t.Fatalf("%s: %d failed calls, first: %v", w.name, p.failures, p.firstErr)
	}
	if p.pushes == 0 {
		t.Fatalf("%s: no push accepted in %d rounds", w.name, n)
	}
	if err := d.check(ctx); err != nil {
		t.Fatalf("%s: output check: %v", w.name, err)
	}
	params, _ = e.root.Model()
	return params, e.wire.Uplink(), e.wire.Downlink(), e
}

// TestTracedRunIsTheSameProgram: with one client and a fixed seed, a
// traced and an untraced run end with bit-identical model params and the
// same wire bytes on every workload, and the traced stream run keeps the
// sparse scatter path (the wrappers forward SparseSafe and SparseAdder).
func TestTracedRunIsTheSameProgram(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			plain, up, down, _ := fixedRun(t, w, 7, 120, nil)
			traced, tup, tdown, te := fixedRun(t, w, 7, 120, newTracer())
			if len(plain) != len(traced) {
				t.Fatalf("param counts differ: %d vs %d", len(plain), len(traced))
			}
			for i := range plain {
				if math.Float64bits(plain[i]) != math.Float64bits(traced[i]) {
					t.Fatalf("param %d differs: untraced %v, traced %v", i, plain[i], traced[i])
				}
			}
			if up != tup || down != tdown {
				t.Fatalf("wire bytes differ: untraced %d up / %d down, traced %d / %d", up, down, tup, tdown)
			}
			c := te.counters()
			ratio := float64(c.sparseAdds) / float64(c.adds)
			if w.name == "stream-sparse-flat" && ratio != 1 {
				t.Fatalf("sparse_add_ratio %v on %s, want 1 (%d of %d adds scattered)", ratio, w.name, c.sparseAdds, c.adds)
			}
			if w.name == "http-dense-gob" && c.sparseAdds != 0 {
				t.Fatalf("%d sparse adds on dense uplink", c.sparseAdds)
			}
		})
	}
}

// TestOutputMatchesBenchmarkJSON: every workload prints exactly the metrics
// BENCHMARK.json declares, end-to-end ones untraced and per-layer ones
// traced, with the declared units, and passes its output checks.
func TestOutputMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload twice")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program has %v", names, have)
	}
	for _, w := range spec.Workloads {
		for trace, want := range [][]struct{ Name, Unit string }{spec.EndToEnd, spec.PerLayer} {
			var out bytes.Buffer
			args := []string{"--workload", w.Name, "--seed", "3", "--seconds", "1.5", "--trace", []string{"0", "1"}[trace]}
			if code := run(args, &out, &out); code != 0 {
				t.Fatalf("%v: exit %d\n%s", args, code, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%v: last line: %v", args, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%v: correct=%v attempted=%d failed=%d\n%s", args, res.Correct, res.Attempted, res.Failed, out.String())
			}
			var got, exp []string
			for name, m := range res.Metrics {
				got = append(got, name+" "+m.Unit)
			}
			for _, m := range want {
				exp = append(exp, m.Name+" "+m.Unit)
			}
			sort.Strings(got)
			sort.Strings(exp)
			if strings.Join(got, ",") != strings.Join(exp, ",") {
				t.Fatalf("%v: metrics\n got %v\nwant %v", args, got, exp)
			}
		}
	}
}

package ingress_test

import (
	"context"
	"testing"

	"fleet/internal/aggtree"
	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/pipeline"
	"fleet/internal/protocol"
	"fleet/internal/server"
	"fleet/internal/service"
	"fleet/internal/simrand"
)

const (
	arch     = nn.ArchSoftmaxMNIST
	epoch    = 3 // the root's incarnation, so a stale worker's epoch 0 is foreign
	history  = 2
	hugeGrad = 10.0 // far above the norm filter's bound of 1
)

// roles builds each serving role over the shared core: a root server, and
// an edge in front of one. The node under test runs the pipeline
// "staleness,norm-filter(1)" with K=1 and a delta history of 2.
var roles = []struct {
	name  string
	build func(t *testing.T) service.Service
}{
	{"root", func(t *testing.T) service.Service {
		return newRoot(t, normPipeline(t))
	}},
	{"edge", func(t *testing.T) service.Service {
		edge, err := aggtree.New(aggtree.Config{
			Upstream:     newRoot(t, nil),
			Arch:         arch,
			Algorithm:    learning.SSGD{},
			K:            1,
			Pipeline:     normPipeline(t),
			DeltaHistory: history,
			ID:           1_000_000,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := edge.Sync(context.Background()); err != nil {
			t.Fatal(err)
		}
		return edge
	}},
}

func normPipeline(t *testing.T) *pipeline.Pipeline {
	t.Helper()
	pipe, err := pipeline.Build("staleness,norm-filter(1)", "mean", pipeline.BuildOptions{Algorithm: learning.SSGD{}})
	if err != nil {
		t.Fatal(err)
	}
	return pipe
}

func newRoot(t *testing.T, pipe *pipeline.Pipeline) *server.Server {
	t.Helper()
	srv, err := server.New(server.Config{
		Arch:         arch,
		Algorithm:    learning.SSGD{},
		LearningRate: 0.1,
		K:            1,
		Pipeline:     pipe,
		DeltaHistory: history,
		BootEpoch:    epoch,
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// validPush is a push both roles accept: a small sparse step at the
// node's current clock, so every applied window keeps the deltas sparse.
func validPush(t *testing.T, svc service.Service, coord int) *protocol.GradientPush {
	t.Helper()
	st, err := svc.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	grad := make([]float64, arch.Build(simrand.New(0)).ParamCount())
	grad[coord] = 0.01
	return &protocol.GradientPush{
		WorkerID: 1, ModelVersion: st.ModelVersion, ModelEpoch: st.ServerEpoch,
		Gradient: grad, BatchSize: 1, LabelCounts: []int{1},
	}
}

// TestRolesRejectAlike runs one table of malformed pushes against a root
// and an edge: both must answer with the same protocol error code, and a
// rejected push — a stage rejection included — must never be counted.
func TestRolesRejectAlike(t *testing.T) {
	cases := []struct {
		name string
		edit func(p *protocol.GradientPush)
		want protocol.ErrorCode
	}{
		{"non-positive batch", func(p *protocol.GradientPush) { p.BatchSize = 0 }, protocol.CodeInvalidArgument},
		{"label-count length", func(p *protocol.GradientPush) { p.LabelCounts = make([]int, arch.Classes()+1) }, protocol.CodeInvalidArgument},
		{"dense length mismatch", func(p *protocol.GradientPush) { p.Gradient = p.Gradient[1:] }, protocol.CodeInvalidArgument},
		{"foreign epoch", func(p *protocol.GradientPush) { p.ModelEpoch = 0 }, protocol.CodeVersionConflict},
		{"future version", func(p *protocol.GradientPush) { p.ModelVersion++ }, protocol.CodeVersionConflict},
		{"norm-filter reject", func(p *protocol.GradientPush) { p.Gradient[0] = hugeGrad }, protocol.CodeInvalidArgument},
	}
	ctx := context.Background()
	for _, role := range roles {
		t.Run(role.name, func(t *testing.T) {
			svc := role.build(t)
			for _, c := range cases {
				push := validPush(t, svc, 0)
				c.edit(push)
				_, err := svc.PushGradient(ctx, push)
				if !protocol.IsCode(err, c.want) {
					t.Errorf("%s: got %v, want %s", c.name, err, c.want)
				}
			}
			st, err := svc.Stats(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.GradientsIn != 0 || st.ModelVersion != 0 {
				t.Fatalf("rejected pushes leaked into stats: %d gradients in, version %d", st.GradientsIn, st.ModelVersion)
			}
		})
	}
}

// TestRolesServeDeltasAlike advances each role three versions and checks
// the four version-aware pull outcomes: current (the empty delta), within
// the history (a delta), older than the history (full), and from another
// epoch (full).
func TestRolesServeDeltasAlike(t *testing.T) {
	ctx := context.Background()
	for _, role := range roles {
		t.Run(role.name, func(t *testing.T) {
			svc := role.build(t)
			for i := 0; i < 3; i++ {
				if _, err := svc.PushGradient(ctx, validPush(t, svc, i)); err != nil {
					t.Fatal(err)
				}
			}
			pull := func(version int, known int64) *protocol.TaskResponse {
				t.Helper()
				resp, err := svc.RequestTask(ctx, &protocol.TaskRequest{
					WorkerID: 1, WantDelta: true, KnownVersion: version, KnownEpoch: known,
				})
				if err != nil || !resp.Accepted {
					t.Fatalf("pull from (%d, %d): %v", version, known, err)
				}
				if resp.ModelVersion != 3 || resp.ServerEpoch != epoch {
					t.Fatalf("pull from (%d, %d) served (%d, %d), want (3, %d)",
						version, known, resp.ModelVersion, resp.ServerEpoch, epoch)
				}
				return resp
			}
			if r := pull(3, epoch); r.Full || r.ParamsDelta == nil || len(r.ParamsDelta.Indices) != 0 || r.DeltaBase != 3 {
				t.Errorf("current: want the empty delta, got %+v", r)
			}
			if r := pull(2, epoch); r.Full || r.ParamsDelta == nil || len(r.ParamsDelta.Indices) == 0 || r.DeltaBase != 2 {
				t.Errorf("in history: want a 2→3 delta, got %+v", r)
			}
			if r := pull(0, epoch); !r.Full || r.ParamsDelta != nil {
				t.Errorf("too old: want a full pull, got %+v", r)
			}
			if r := pull(3, epoch+1); !r.Full || r.ParamsDelta != nil {
				t.Errorf("other epoch: want a full pull, got %+v", r)
			}
		})
	}
}

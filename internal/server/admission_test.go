package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"fleet/internal/learning"
	"fleet/internal/nn"
	"fleet/internal/protocol"
	"fleet/internal/sched"
	"fleet/internal/simrand"
)

// TestDefaultAdmissionChainComposition checks the chain a server reports:
// the configured policies in order, or the empty chain when none is set.
func TestDefaultAdmissionChainComposition(t *testing.T) {
	s := newTestServer(t, Config{Admission: sched.NewChain(sched.MinBatch(5), sched.Similarity(0.9))})
	want := []string{"min-batch(5)", "similarity(0.9)"}
	got := sched.Names(s.Admission())
	if len(got) != len(want) {
		t.Fatalf("chain = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chain = %v, want %v", got, want)
		}
	}
	// No knobs set: the empty, admit-all chain.
	s2 := newTestServer(t, Config{})
	if names := sched.Names(s2.Admission()); len(names) != 0 {
		t.Fatalf("unconfigured server built chain %v", names)
	}
}

// TestTaskLabelCountValidation proves malformed label histograms surface
// as structured invalid_argument at the protocol boundary for both
// RequestTask and PushGradient.
func TestTaskLabelCountValidation(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, Config{}) // softmax-mnist: 10 classes
	params, _ := s.Model()

	tooLong := make([]int, 11)
	negative := []int{1, -2, 3}

	var apiErr *protocol.Error
	for name, counts := range map[string][]int{"too-long": tooLong, "negative": negative} {
		_, err := s.RequestTask(ctx, &protocol.TaskRequest{LabelCounts: counts})
		if !errors.As(err, &apiErr) || apiErr.Code != protocol.CodeInvalidArgument {
			t.Errorf("RequestTask %s: want invalid_argument, got %v", name, err)
		}
		_, err = s.PushGradient(ctx, &protocol.GradientPush{
			ModelVersion: 0, Gradient: make([]float64, len(params)), BatchSize: 1, LabelCounts: counts,
		})
		if !errors.As(err, &apiErr) || apiErr.Code != protocol.CodeInvalidArgument {
			t.Errorf("PushGradient %s: want invalid_argument, got %v", name, err)
		}
	}
	// Rejected requests must not leak into any counter.
	stats, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TasksServed != 0 || stats.TasksDropped != 0 || stats.GradientsIn != 0 {
		t.Fatalf("validation failures leaked into stats: %+v", stats)
	}
	// Shorter-than-classes histograms stay legal (trailing labels empty).
	if _, err := s.RequestTask(ctx, &protocol.TaskRequest{LabelCounts: []int{1, 2}}); err != nil {
		t.Fatalf("short label vector must pass: %v", err)
	}
}

// pushSparse pushes a one-coordinate sparse gradient at the server's
// current version.
func pushSparse(t *testing.T, s *Server, idx int32, val float64) {
	t.Helper()
	_, v := s.Model()
	if _, err := s.PushGradient(context.Background(), &protocol.GradientPush{
		ModelVersion: v, GradientLen: s.core.ParamCount(),
		SparseIndices: []int32{idx}, SparseValues: []float64{val},
		BatchSize: 1, LabelCounts: []int{1},
	}); err != nil {
		t.Fatal(err)
	}
}

// TestDeltaPullReconstructsExactParams is the acceptance test for
// version-aware pulls: a worker holding version t−τ applies the served
// sparse delta and must land bit-for-bit on the server's current params.
func TestDeltaPullReconstructsExactParams(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, Config{Algorithm: learning.SSGD{}}) // K=1, DeltaHistory default 4

	// Full pull at version 0.
	full, err := s.RequestTask(ctx, &protocol.TaskRequest{LabelCounts: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if full.ParamsDelta != nil || !full.Full || full.ModelVersion != 0 {
		t.Fatalf("initial pull = %+v", full)
	}
	cached := append([]float64(nil), full.Params...)

	// Three sparse updates: versions 1, 2, 3.
	pushSparse(t, s, 3, 0.5)
	pushSparse(t, s, 7, -0.25)
	pushSparse(t, s, 3, 0.125)

	// τ = 3 delta pull from version 0.
	resp, err := s.RequestTask(ctx, &protocol.TaskRequest{
		LabelCounts: []int{1}, WantDelta: true, KnownVersion: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ParamsDelta == nil || resp.DeltaBase != 0 || resp.ModelVersion != 3 {
		t.Fatalf("delta pull = %+v", resp)
	}
	if nnz := len(resp.ParamsDelta.Indices); nnz != 2 {
		t.Fatalf("delta nnz = %d, want 2 (coords 3 and 7)", nnz)
	}
	if err := resp.ParamsDelta.Patch(cached); err != nil {
		t.Fatal(err)
	}
	want, wantV := s.Model()
	if wantV != 3 {
		t.Fatalf("server at version %d", wantV)
	}
	for i := range want {
		if cached[i] != want[i] {
			t.Fatalf("coord %d: reconstructed %v, server %v", i, cached[i], want[i])
		}
	}

	// Already current: the empty delta.
	resp, err = s.RequestTask(ctx, &protocol.TaskRequest{
		LabelCounts: []int{1}, WantDelta: true, KnownVersion: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ParamsDelta == nil || len(resp.ParamsDelta.Indices) != 0 || resp.DeltaBase != 3 {
		t.Fatalf("current-version pull = %+v", resp)
	}

	// τ beyond DeltaHistory: transparent full fallback.
	for i := 0; i < 5; i++ {
		pushSparse(t, s, int32(10+i), 0.5)
	}
	resp, err = s.RequestTask(ctx, &protocol.TaskRequest{
		LabelCounts: []int{1}, WantDelta: true, KnownVersion: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ParamsDelta != nil || !resp.Full || len(resp.Params) != s.core.ParamCount() {
		t.Fatalf("stale pull must fall back to full: %+v", resp)
	}

	// A claimed future version: full fallback, never an error.
	resp, err = s.RequestTask(ctx, &protocol.TaskRequest{
		LabelCounts: []int{1}, WantDelta: true, KnownVersion: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ParamsDelta != nil || resp.Params == nil {
		t.Fatalf("future-version pull = %+v", resp)
	}

	// The initial full response must still hold version-0 params: serving
	// shares immutable snapshot storage, drains never write in place.
	fresh := nn.ArchSoftmaxMNIST.Build(simrand.New(0)).ParamVector()
	for i := range fresh {
		if full.Params[i] != fresh[i] {
			t.Fatalf("version-0 response mutated at coord %d after later drains", i)
		}
	}
}

// TestDeltaPullDenseUpdateFallsBack: when an update touches more than half
// the vector, the precomputed delta is abandoned and pulls fall back to
// full — the sparse form would cost more wire than it saves.
func TestDeltaPullDenseUpdateFallsBack(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, Config{Algorithm: learning.SSGD{}})
	params, _ := s.Model()
	dense := make([]float64, len(params))
	for i := range dense {
		dense[i] = 1e-3
	}
	if _, err := s.PushGradient(ctx, &protocol.GradientPush{
		ModelVersion: 0, Gradient: dense, BatchSize: 1, LabelCounts: []int{1},
	}); err != nil {
		t.Fatal(err)
	}
	resp, err := s.RequestTask(ctx, &protocol.TaskRequest{
		LabelCounts: []int{1}, WantDelta: true, KnownVersion: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ParamsDelta != nil || !resp.Full {
		t.Fatalf("dense update must serve full params: delta=%v full=%v", resp.ParamsDelta, resp.Full)
	}
}

// TestDeltaHistoryDisabled: a negative DeltaHistory turns version-aware
// pulls off entirely.
func TestDeltaHistoryDisabled(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, Config{Algorithm: learning.SSGD{}, DeltaHistory: -1})
	pushSparse(t, s, 1, 0.5)
	resp, err := s.RequestTask(ctx, &protocol.TaskRequest{
		LabelCounts: []int{1}, WantDelta: true, KnownVersion: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ParamsDelta != nil {
		t.Fatalf("disabled delta history still served a delta: %+v", resp)
	}
}

// TestPerPolicyRejectCounters drives rejections through two different
// policies and checks the stats attribution.
func TestPerPolicyRejectCounters(t *testing.T) {
	ctx := context.Background()
	s := newTestServer(t, Config{
		Admission: sched.NewChain(sched.MinBatch(200), sched.Similarity(0.9)),
	})
	// Default batch 100 < 200: every request rejected by min-batch.
	for i := 0; i < 3; i++ {
		resp, err := s.RequestTask(ctx, &protocol.TaskRequest{LabelCounts: []int{1}})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Accepted {
			t.Fatal("batch 100 < 200 must reject")
		}
	}
	stats, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.TasksDropped != 3 || stats.TasksRejected != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.RejectsByPolicy["min-batch(200)"] != 3 {
		t.Fatalf("rejects by policy = %v", stats.RejectsByPolicy)
	}
	if len(stats.AdmissionPolicies) != 2 || stats.AdmissionPolicies[0] != "min-batch(200)" {
		t.Fatalf("admission policies = %v", stats.AdmissionPolicies)
	}
}

// TestConcurrentRequestAndPush hammers the lock-free pull path against the
// gradient-commit path from many goroutines; with -race it proves the
// snapshot handoff (shared immutable params, precomputed deltas, atomic
// counters) is data-race free.
func TestConcurrentRequestAndPush(t *testing.T) {
	ctx := context.Background()
	const pushers, pullers, iters = 4, 4, 50
	s := newTestServer(t, Config{K: 2, Algorithm: learning.SSGD{}})
	paramCount := s.core.ParamCount()

	var wg sync.WaitGroup
	errCh := make(chan error, pushers+pullers)
	for p := 0; p < pushers; p++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				push := &protocol.GradientPush{
					WorkerID: id, ModelVersion: 0,
					BatchSize: 5, LabelCounts: []int{1, 1},
				}
				if i%2 == 0 {
					push.GradientLen = paramCount
					push.SparseIndices = []int32{int32((id*iters + i) % paramCount)}
					push.SparseValues = []float64{1e-3}
				} else {
					grad := make([]float64, paramCount)
					grad[(id*iters+i)%paramCount] = 1e-3
					push.Gradient = grad
				}
				if _, err := s.PushGradient(ctx, push); err != nil {
					errCh <- err
					return
				}
			}
		}(p)
	}
	for p := 0; p < pullers; p++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			known, cached := -1, []float64(nil)
			for i := 0; i < iters; i++ {
				req := &protocol.TaskRequest{WorkerID: 100 + id, LabelCounts: []int{1, 2}}
				if known >= 0 {
					req.WantDelta = true
					req.KnownVersion = known
				}
				resp, err := s.RequestTask(ctx, req)
				if err != nil {
					errCh <- err
					return
				}
				if resp.ParamsDelta != nil {
					if resp.DeltaBase != known {
						errCh <- fmt.Errorf("delta base %d, known %d", resp.DeltaBase, known)
						return
					}
					if err := resp.ParamsDelta.Patch(cached); err != nil {
						errCh <- err
						return
					}
				} else {
					cached = append(cached[:0], resp.Params...)
				}
				known = resp.ModelVersion
				if i%9 == 0 {
					if _, err := s.Stats(ctx); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(p)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	stats, err := s.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if stats.GradientsIn != pushers*iters || stats.TasksServed != pullers*iters {
		t.Fatalf("stats = %+v", stats)
	}
}

// BenchmarkRequestTask contrasts the lock-free snapshot path against the
// pre-redesign behavior: the "legacy-locked" baseline reproduces what the
// old accept path did on every pull — take the server mutex and copy the
// full O(P) parameter vector — while "snapshot" and "snapshot-delta" are
// the live code (shared immutable slice / precomputed delta handoff).
func BenchmarkRequestTask(b *testing.B) {
	ctx := context.Background()

	b.Run("snapshot", func(b *testing.B) {
		s := newTestServer(b, Config{Algorithm: learning.SSGD{}, Arch: nn.ArchTinyMNIST})
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			req := &protocol.TaskRequest{WorkerID: 1, LabelCounts: []int{1}}
			for pb.Next() {
				if _, err := s.RequestTask(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	})

	b.Run("snapshot-delta", func(b *testing.B) {
		s := newTestServer(b, Config{Algorithm: learning.SSGD{}, Arch: nn.ArchTinyMNIST})
		// One sparse update so version 0 has a real precomputed delta.
		_, v := s.Model()
		if _, err := s.PushGradient(ctx, &protocol.GradientPush{
			ModelVersion: v, GradientLen: s.core.ParamCount(),
			SparseIndices: []int32{1}, SparseValues: []float64{1e-3},
			BatchSize: 1, LabelCounts: []int{1},
		}); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			req := &protocol.TaskRequest{WorkerID: 1, LabelCounts: []int{1}, WantDelta: true, KnownVersion: 0}
			for pb.Next() {
				if _, err := s.RequestTask(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	})

	b.Run("legacy-locked", func(b *testing.B) {
		s := newTestServer(b, Config{Algorithm: learning.SSGD{}, Arch: nn.ArchTinyMNIST})
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				s.mu.Lock()
				resp := &protocol.TaskResponse{
					Accepted:     true,
					ModelVersion: s.core.Snapshot().Version,
					Params:       s.model.ParamVector(),
					BatchSize:    100,
				}
				s.mu.Unlock()
				_ = resp
			}
		})
	})
}

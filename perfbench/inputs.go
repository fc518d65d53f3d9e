package main

import (
	"fmt"
	"math/rand"

	"fleet/internal/compress"
	"fleet/internal/data"
	"fleet/internal/device"
	"fleet/internal/iprof"
	"fleet/internal/nn"
	"fleet/internal/protocol"
	"fleet/internal/simrand"
)

// arch is the model every workload serves: the paper's Table-1 MNIST CNN.
const arch = nn.ArchMNIST

// gradBatch is the mini-batch each device's gradient is computed on.
const gradBatch = 8

// tier is a device speed class: per-sample cost slopes are scaled by factor.
type tier struct {
	factor, weight float64
}

// deviceInput is what one simulated phone sends: its identity, the I-Prof
// features of its task requests, and a push template holding its
// precomputed, compressed gradient.
type deviceInput struct {
	id       int
	model    string
	features []float64
	labels   []int
	// alpha is the device's measured seconds per training sample; a push
	// reports alpha × the prescribed batch as its computation time.
	alpha float64
	push  protocol.GradientPush
}

// inputs is everything a run feeds the program under test, generated from
// the seed before any timing: the program receives nothing else.
type inputs struct {
	devices []deviceInput
	// timeObs pretrains the edges' I-Prof time profilers (tree only).
	timeObs []iprof.Observation
	// arrivals are the open loop's Poisson send offsets, in seconds.
	arrivals []float64
	// picks seeds each client's device choice.
	picks [2]int64
}

// makeInputs computes real gradients of the initial model on synthetic
// MNIST partitions and compresses them per device through compress.Build.
func makeInputs(w workload, seed int64, openSeconds float64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	ds := data.SyntheticMNIST(rng.Int63(), 0.2)
	parts := data.PartitionNonIID(rng, ds.Train, w.devices, 2)
	net := arch.Build(simrand.New(modelSeed))
	catalogue := device.Catalogue()
	weights := make([]float64, len(w.tiers))
	for i, t := range w.tiers {
		weights[i] = t.weight
	}
	in := &inputs{devices: make([]deviceInput, w.devices)}
	seen := map[string]bool{}
	var fleet []device.Model
	for i := range in.devices {
		batch := data.SampleBatch(rng, parts[i], gradBatch)
		grad, _ := net.Gradient(batch)
		push := protocol.GradientPush{
			WorkerID:    i,
			LabelCounts: data.LabelCounts(batch, arch.Classes()),
		}
		comp, err := compress.Build(w.compress, compress.Options{Length: len(grad), Rng: rand.New(rand.NewSource(rng.Int63()))})
		if err != nil {
			return nil, err
		}
		if comp == nil {
			push.Gradient = grad
		} else if err := setPayload(&push, comp.Compress(grad)); err != nil {
			return nil, err
		}

		m := catalogue[rng.Intn(len(catalogue))]
		if len(w.tiers) > 0 {
			m = m.Scaled(w.tiers[simrand.Categorical(rng, weights)].factor)
		}
		if !seen[m.Name] {
			seen[m.Name] = true
			fleet = append(fleet, m)
		}
		dev := device.New(m, rand.New(rand.NewSource(rng.Int63())))
		exec := dev.Execute(gradBatch)
		push.DeviceModel = m.Name
		push.TimeFeatures = iprof.FeaturesOf(dev, iprof.KindTime)
		in.devices[i] = deviceInput{
			id:       i,
			model:    m.Name,
			features: dev.Features(),
			labels:   data.LabelCounts(parts[i], arch.Classes()),
			alpha:    exec.LatencySec / gradBatch,
			push:     push,
		}
	}
	slo, err := timeSLO(w.admission)
	if err != nil {
		return nil, err
	}
	if slo > 0 {
		in.timeObs = iprof.CollectWith(rng, fleet, iprof.KindTime, slo, iprof.CollectConfig{MaxBatch: 4096}).Observations
	}
	for c := range in.picks {
		in.picks[c] = rng.Int63()
	}
	for t := rng.ExpFloat64() / w.openRate; t < openSeconds; t += rng.ExpFloat64() / w.openRate {
		in.arrivals = append(in.arrivals, t)
	}
	return in, nil
}

// modelSeed initializes the served model, in the server and in the
// gradient computation, so gradients are taken at the model the server
// starts from. It is part of the workload, not of the seeded inputs: the
// initialization decides how many units are dead, which moves every
// gradient's density and so the codec's work per push.
const modelSeed = 1

// setPayload maps a compression chain's wire form onto the push, stamping
// its encoding tag.
func setPayload(push *protocol.GradientPush, f compress.Form) error {
	push.Encoding = f.Encoding
	switch f.Kind {
	case compress.FormSparse:
		push.GradientLen = f.Sparse.Len
		push.SparseIndices = f.Sparse.Indices
		push.SparseValues = f.Sparse.Values
	case compress.FormSparseQ8:
		push.GradientLen = f.Q8.Len
		push.SparseIndices = f.Q8.Indices
		push.SparseQ8Levels = f.Q8.Levels
		push.SparseQ8Min = f.Q8.Min
		push.SparseQ8Max = f.Q8.Max
	case compress.FormSparseF16:
		push.GradientLen = f.F16.Len
		push.SparseIndices = f.F16.Indices
		push.SparseF16 = f.F16.Values
	case compress.FormDense:
		push.Gradient = f.Dense
	default:
		return fmt.Errorf("inputs: unknown compressed form %v", f.Kind)
	}
	return nil
}

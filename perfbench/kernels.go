package main

import (
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/vit"
)

// perCall times samples × reps calls of fn and returns the seconds per
// call of each sample, after one untimed sample of warm-up.
func perCall(samples, reps int, fn func()) []float64 {
	out := make([]float64, 0, samples)
	for s := -1; s < samples; s++ {
		t0 := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if s >= 0 {
			out = append(out, time.Since(t0).Seconds()/float64(reps))
		}
	}
	return out
}

// scaled multiplies every sample by k.
func scaled(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// kernelLayers times the public tensor and nn kernels at train-real's
// per-rank shapes, and the collective engine on a phantom Tesseract
// [4,4,4] block. These layers are the same on every workload.
func kernelLayers(cfg Config, res *Result) error {
	sz := cfg.Size
	rng := tensor.NewRNG(cfg.Seed*11 + 5)
	s := (sz.Image / 4) * (sz.Image / 4)
	rows, h := sz.Batch*s, sz.Hidden

	// GEMMs of a tesseract [2,2,2] rank (a quarter of the rows, half the
	// width) and of a megatron [4] rank (all rows, a quarter of the
	// projected width).
	type shape struct{ m, k, n int }
	shapes := []shape{
		{rows / 4, h / 2, 3 * h / 2}, {rows / 4, h / 2, 2 * h}, {rows / 4, 2 * h, h / 2},
		{rows, h, 3 * h / 4}, {rows, h, h}, {rows, h / 4, h},
	}
	type gemm struct{ c, a, b *tensor.Matrix }
	var gemms []gemm
	var flops float64
	for _, sh := range shapes {
		gemms = append(gemms, gemm{tensor.New(sh.m, sh.n), tensor.RandomMatrix(sh.m, sh.k, rng), tensor.RandomMatrix(sh.k, sh.n, rng)})
		flops += tensor.GEMMFlops(float64(sh.m), float64(sh.n), float64(sh.k))
	}
	sec := perCall(15, 20, func() {
		for _, g := range gemms {
			tensor.MatMulInto(g.c, g.a, g.b)
		}
	})
	gf := make([]float64, len(sec))
	for i, t := range sec {
		gf[i] = flops / t / 1e9
	}
	res.add("tensor.gemm_gflops", medianOf(gf), gf, fmt.Sprintf("%d per-rank shapes per call", len(shapes)))

	act := tensor.RandomMatrix(rows, h, rng)
	dst := tensor.New(rows, h)
	gelu := scaled(perCall(15, 20, func() { tensor.GELUTo(dst, act) }), 1e9/float64(act.Size()))
	res.add("tensor.gelu_ns_per_elem", medianOf(gelu), gelu, fmt.Sprintf("GELUTo on [%d,%d]", rows, h))

	scores := tensor.RandomMatrix(sz.Batch*sz.Heads*s, s, rng)
	probs := tensor.New(scores.Rows, scores.Cols)
	soft := scaled(perCall(15, 20, func() { tensor.SoftmaxRowsTo(probs, scores) }), 1e9/float64(scores.Size()))
	res.add("tensor.softmax_ns_per_elem", medianOf(soft), soft, fmt.Sprintf("SoftmaxRowsTo on [%d,%d]", scores.Rows, scores.Cols))

	// The serial reference model: one goroutine, no dist.
	ds, mcfg, tc := trainInputs(cfg.Seed, sz)
	model := vit.NewModel(mcfg)
	params := model.Params()
	opt := nn.NewAdam(tc.LR, tc.WeightDecay)
	idx := make([]int, sz.Batch)
	for i := range idx {
		idx[i] = i % len(ds.Train)
	}
	x, labels := ds.Batch(ds.Train, idx)
	step := scaled(perCall(9, 2, func() {
		logits := model.Forward(x)
		_, dl := nn.CrossEntropy(logits, labels)
		for _, p := range params {
			p.ZeroGrad()
		}
		model.Backward(dl)
		opt.Step(params)
	}), 1e3)
	res.add("nn.serial_step_ms", medianOf(step), step, "vit.Model step on one goroutine")
	adam := scaled(perCall(15, 20, func() { opt.Step(params) }), 1e3)
	res.add("nn.adam_ms", medianOf(adam), adam, fmt.Sprintf("Adam over %d serial parameters", len(params)))

	ns, err := phantomCollectiveNS()
	if err != nil {
		return err
	}
	res.add("dist.phantom_ns_per_call", medianOf(ns), ns, "Tesseract [4,4,4] phantom block forward+backward, per collective")
	return nil
}

// phantomCollectiveNS builds a 64-rank Tesseract [4,4,4] cluster with one
// shape-only block at Table 1's size and returns, per sample, the wall
// nanoseconds of a forward plus backward per collective it issued.
func phantomCollectiveNS() ([]float64, error) {
	const batch, seq, hidden, heads = 16, 512, 3072, 64
	l, err := parallel.Validate(parallel.Layout{Family: "tesseract", Q: 4, D: 4})
	if err != nil {
		return nil, err
	}
	c := dist.New(dist.Config{WorldSize: l.Ranks})
	fams := make([]parallel.Family, l.Ranks)
	blocks := make([]parallel.Layer, l.Ranks)
	xs := make([]*tensor.Matrix, l.Ranks)
	err = c.Run(func(w *dist.Worker) error {
		f, err := parallel.New(w, l)
		if err != nil {
			return err
		}
		sl := f.Slice(batch*seq, hidden)
		fams[w.Rank()], blocks[w.Rank()], xs[w.Rank()] = f, f.NewBlockPhantom(hidden, heads, seq), tensor.NewPhantom(sl.Rows, sl.Cols)
		return nil
	})
	if err != nil {
		return nil, err
	}
	pass := func(reps int) error {
		return c.Run(func(w *dist.Worker) error {
			r := w.Rank()
			for i := 0; i < reps; i++ {
				y := blocks[r].Forward(xs[r])
				blocks[r].Backward(y)
				fams[r].DrainGradients()
				fams[r].EndStep()
			}
			return nil
		})
	}
	if err := pass(1); err != nil {
		return nil, err
	}
	var out []float64
	for s := 0; s < 9; s++ {
		before := callCount(c.Stats())
		t0 := time.Now()
		if err := pass(3); err != nil {
			return nil, err
		}
		d := time.Since(t0)
		out = append(out, float64(d.Nanoseconds())/float64(callCount(c.Stats())-before))
	}
	return out, nil
}

// callCount totals the collective calls and sends in a statistics
// snapshot.
func callCount(s dist.Stats) int64 {
	var n int64
	for _, op := range s.PerOp {
		n += op.Calls
	}
	return n
}

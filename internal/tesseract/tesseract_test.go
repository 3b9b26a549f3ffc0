package tesseract

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/nn"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// shapes exercised by most equivalence tests: serial, 2-D, 2.5-D, 3-D.
var meshShapes = []struct{ q, d int }{{1, 1}, {2, 1}, {2, 2}}

func runMesh(t *testing.T, q, d int, fn func(p *Proc) error) *dist.Cluster {
	t.Helper()
	s := mesh.Shape{Q: q, D: d}
	return testutil.Run(t, s.Size(), func(w *dist.Worker) error {
		return fn(NewProcAt(w, s))
	})
}

func TestMatMulABMatchesSerial(t *testing.T) {
	for _, ms := range meshShapes {
		t.Run(fmt.Sprintf("q%dd%d", ms.q, ms.d), func(t *testing.T) {
			rng := tensor.NewRNG(1)
			ga := tensor.RandomMatrix(8, 6, rng)
			gb := tensor.RandomMatrix(6, 4, rng)
			want := tensor.MatMul(ga, gb)
			results := testutil.NewCollector()
			runMesh(t, ms.q, ms.d, func(p *Proc) error {
				lc := p.MatMulAB(p.DistributeA(ga), p.DistributeB(gb))
				results.Put(p.W.Rank(), p.CollectA(lc))
				return nil
			})
			testutil.CheckClose(t, "C", results.Get(0), want, 1e-9)
		})
	}
}

func TestMatMulATBDepthAllReduce(t *testing.T) {
	// The full Eq. 3 parameter gradient: per-layer partials summed across
	// depth must equal the serial Aᵀ·C' on every replica.
	rng := tensor.NewRNG(2)
	ga := tensor.RandomMatrix(8, 6, rng)
	gc := tensor.RandomMatrix(8, 4, rng)
	want := tensor.MatMulTN(ga, gc)
	results := testutil.NewCollector()
	runMesh(t, 2, 2, func(p *Proc) error {
		lb := p.MatMulATB(p.DistributeA(ga), p.DistributeA(gc))
		results.Put(p.W.Rank(), p.CollectB(lb))
		return nil
	})
	for r := 0; r < 8; r++ {
		testutil.CheckClose(t, fmt.Sprintf("rank %d", r), results.Get(r), want, 1e-9)
	}
}

func TestLinearForwardBackwardMatchesSerial(t *testing.T) {
	const in, out, rows = 8, 12, 8
	for _, ms := range meshShapes {
		t.Run(fmt.Sprintf("q%dd%d", ms.q, ms.d), func(t *testing.T) {
			dataRng := tensor.NewRNG(10)
			x := tensor.RandomMatrix(rows, in, dataRng)
			dy := tensor.RandomMatrix(rows, out, dataRng)

			ref := nn.NewLinear(in, out, nn.ActGELU, true, tensor.NewRNG(42))
			wantY := ref.Forward(x)
			wantDx := ref.Backward(dy)

			ys := testutil.NewCollector()
			dxs := testutil.NewCollector()
			gws := testutil.NewCollector()
			gbs := testutil.NewCollector()
			runMesh(t, ms.q, ms.d, func(p *Proc) error {
				l := NewLinear(p, in, out, nn.ActGELU, true, tensor.NewRNG(42))
				y := l.Forward(p, p.DistributeA(x))
				dx := l.Backward(p, p.DistributeA(dy))
				p.DrainGradients() // gradients are final only after the queued depth sync completes
				ys.Put(p.W.Rank(), p.CollectA(y))
				dxs.Put(p.W.Rank(), p.CollectA(dx))
				gws.Put(p.W.Rank(), p.CollectB(l.W.Grad))
				if p.I == 0 {
					gb := l.B.Grad
					gbs.Put(p.W.Rank(), p.Row.AllGatherInto(p.W, gb, tensor.New(gb.Rows, p.Row.Size()*gb.Cols)))
				}
				return nil
			})
			testutil.CheckClose(t, "y", ys.Get(0), wantY, 1e-9)
			testutil.CheckClose(t, "dx", dxs.Get(0), wantDx, 1e-9)
			testutil.CheckClose(t, "dW", gws.Get(0), ref.W.Grad, 1e-9)
			testutil.CheckClose(t, "dB", gbs.Get(0), ref.B.Grad, 1e-9)
			// Weight-gradient replicas must agree across depth (§3.1).
			world := ms.q * ms.q * ms.d
			for r := 1; r < world; r++ {
				testutil.CheckClose(t, fmt.Sprintf("dW replica %d", r), gws.Get(r), ref.W.Grad, 1e-9)
			}
		})
	}
}

func TestLayerNormMatchesSerial(t *testing.T) {
	const h, rows = 8, 8
	for _, ms := range meshShapes {
		t.Run(fmt.Sprintf("q%dd%d", ms.q, ms.d), func(t *testing.T) {
			dataRng := tensor.NewRNG(20)
			x := tensor.RandomMatrix(rows, h, dataRng)
			dy := tensor.RandomMatrix(rows, h, dataRng)

			ref := nn.NewLayerNorm(h)
			wantY := ref.Forward(x)
			wantDx := ref.Backward(dy)

			ys := testutil.NewCollector()
			dxs := testutil.NewCollector()
			runMesh(t, ms.q, ms.d, func(p *Proc) error {
				l := NewLayerNorm(p, h)
				y := l.Forward(p, p.DistributeA(x))
				dx := l.Backward(p, p.DistributeA(dy))
				ys.Put(p.W.Rank(), p.CollectA(y))
				dxs.Put(p.W.Rank(), p.CollectA(dx))
				return nil
			})
			testutil.CheckClose(t, "y", ys.Get(0), wantY, 1e-9)
			testutil.CheckClose(t, "dx", dxs.Get(0), wantDx, 1e-9)
		})
	}
}

func TestLayerNormRowStatistics(t *testing.T) {
	// Forward output rows must have zero mean and unit variance across the
	// full hidden dimension even though it is split across processors.
	const h, rows = 8, 4
	rng := tensor.NewRNG(21)
	x := tensor.RandomMatrix(rows, h, rng)
	ys := testutil.NewCollector()
	runMesh(t, 2, 2, func(p *Proc) error {
		l := NewLayerNorm(p, h)
		y := l.Forward(p, p.DistributeA(x))
		ys.Put(p.W.Rank(), p.CollectA(y))
		return nil
	})
	y := ys.Get(0)
	for i := 0; i < rows; i++ {
		var sum, sq float64
		for j := 0; j < h; j++ {
			v := y.At(i, j)
			sum += v
			sq += v * v
		}
		mean := sum / float64(h)
		variance := sq/float64(h) - mean*mean
		if mean > 1e-9 || mean < -1e-9 {
			t.Fatalf("row %d mean %g", i, mean)
		}
		if variance < 0.9 || variance > 1.1 {
			t.Fatalf("row %d variance %g (eps-limited)", i, variance)
		}
	}
}

func TestAttentionMatchesSerial(t *testing.T) {
	const h, heads, seqLen = 8, 2, 2
	const rows = 8 // 4 sequences of 2 tokens
	for _, ms := range meshShapes {
		t.Run(fmt.Sprintf("q%dd%d", ms.q, ms.d), func(t *testing.T) {
			dataRng := tensor.NewRNG(30)
			x := tensor.RandomMatrix(rows, h, dataRng)
			dy := tensor.RandomMatrix(rows, h, dataRng)

			ref := nn.NewMultiHeadAttention(h, heads, seqLen, tensor.NewRNG(77))
			wantY := ref.Forward(x)
			wantDx := ref.Backward(dy)

			ys := testutil.NewCollector()
			dxs := testutil.NewCollector()
			runMesh(t, ms.q, ms.d, func(p *Proc) error {
				a := NewAttention(p, h, heads, seqLen, tensor.NewRNG(77))
				y := a.Forward(p, p.DistributeA(x))
				dx := a.Backward(p, p.DistributeA(dy))
				p.DrainGradients()
				ys.Put(p.W.Rank(), p.CollectA(y))
				dxs.Put(p.W.Rank(), p.CollectA(dx))
				return nil
			})
			testutil.CheckClose(t, "y", ys.Get(0), wantY, 1e-9)
			testutil.CheckClose(t, "dx", dxs.Get(0), wantDx, 1e-9)
		})
	}
}

func TestMLPMatchesSerial(t *testing.T) {
	const h, rows = 8, 8
	for _, ms := range meshShapes {
		t.Run(fmt.Sprintf("q%dd%d", ms.q, ms.d), func(t *testing.T) {
			dataRng := tensor.NewRNG(40)
			x := tensor.RandomMatrix(rows, h, dataRng)
			dy := tensor.RandomMatrix(rows, h, dataRng)

			ref := nn.NewMLP(h, tensor.NewRNG(88))
			wantY := ref.Forward(x)
			wantDx := ref.Backward(dy)

			ys := testutil.NewCollector()
			dxs := testutil.NewCollector()
			runMesh(t, ms.q, ms.d, func(p *Proc) error {
				m := NewMLP(p, h, tensor.NewRNG(88))
				y := m.Forward(p, p.DistributeA(x))
				dx := m.Backward(p, p.DistributeA(dy))
				p.DrainGradients()
				ys.Put(p.W.Rank(), p.CollectA(y))
				dxs.Put(p.W.Rank(), p.CollectA(dx))
				return nil
			})
			testutil.CheckClose(t, "y", ys.Get(0), wantY, 1e-9)
			testutil.CheckClose(t, "dx", dxs.Get(0), wantDx, 1e-9)
		})
	}
}

func TestBlockMatchesSerial(t *testing.T) {
	const h, heads, seqLen, rows = 8, 2, 2, 8
	for _, ms := range meshShapes {
		t.Run(fmt.Sprintf("q%dd%d", ms.q, ms.d), func(t *testing.T) {
			dataRng := tensor.NewRNG(50)
			x := tensor.RandomMatrix(rows, h, dataRng)
			dy := tensor.RandomMatrix(rows, h, dataRng)

			ref := nn.NewBlock(h, heads, seqLen, tensor.NewRNG(99))
			wantY := ref.Forward(x)
			wantDx := ref.Backward(dy)

			ys := testutil.NewCollector()
			dxs := testutil.NewCollector()
			runMesh(t, ms.q, ms.d, func(p *Proc) error {
				b := NewBlock(p, h, heads, seqLen, tensor.NewRNG(99))
				y := b.Forward(p, p.DistributeA(x))
				dx := b.Backward(p, p.DistributeA(dy))
				p.DrainGradients()
				ys.Put(p.W.Rank(), p.CollectA(y))
				dxs.Put(p.W.Rank(), p.CollectA(dx))
				return nil
			})
			testutil.CheckClose(t, "y", ys.Get(0), wantY, 1e-8)
			testutil.CheckClose(t, "dx", dxs.Get(0), wantDx, 1e-8)
		})
	}
}

func TestTrainingStepsStayInSyncWithSerial(t *testing.T) {
	// Three Adam steps on a Block: the distributed model must track the
	// serial model's outputs, and the depth replicas of every parameter
	// must remain bit-compatible with each other.
	const h, heads, seqLen, rows, steps = 8, 2, 2, 8, 3
	dataRng := tensor.NewRNG(60)
	xs := make([]*tensor.Matrix, steps)
	targets := make([]*tensor.Matrix, steps)
	for i := range xs {
		xs[i] = tensor.RandomMatrix(rows, h, dataRng)
		targets[i] = tensor.RandomMatrix(rows, h, dataRng)
	}

	// Serial run.
	ref := nn.NewBlock(h, heads, seqLen, tensor.NewRNG(7))
	refOpt := nn.NewAdam(1e-2, 0)
	wantLosses := make([]float64, steps)
	for i := 0; i < steps; i++ {
		y := ref.Forward(xs[i])
		loss, dy := nn.MSE(y, targets[i])
		wantLosses[i] = loss
		for _, p := range ref.Params() {
			p.ZeroGrad()
		}
		ref.Backward(dy)
		refOpt.Step(ref.Params())
	}

	losses := testutil.NewScalars()
	runMesh(t, 2, 2, func(p *Proc) error {
		b := NewBlock(p, h, heads, seqLen, tensor.NewRNG(7))
		opt := nn.NewAdam(1e-2, 0)
		var lastLoss float64
		for i := 0; i < steps; i++ {
			y := b.Forward(p, p.DistributeA(xs[i]))
			full := p.CollectA(y)
			loss, dyFull := nn.MSE(full, targets[i])
			lastLoss = loss
			for _, pa := range b.Params() {
				pa.ZeroGrad()
			}
			b.Backward(p, p.DistributeA(dyFull))
			p.DrainGradients()
			opt.Step(b.Params())
			if i == 0 && loss != wantLosses[0] {
				// Loss is computed from the collected output; allow fp
				// noise from the distributed reductions.
				diff := loss - wantLosses[0]
				if diff > 1e-9 || diff < -1e-9 {
					t.Errorf("step 0 loss %g vs serial %g", loss, wantLosses[0])
				}
			}
		}
		losses.Put(p.W.Rank(), lastLoss)
		return nil
	})
	final := losses.Get(0)
	diff := final - wantLosses[steps-1]
	if diff > 1e-7 || diff < -1e-7 {
		t.Fatalf("after %d steps distributed loss %g diverged from serial %g", steps, final, wantLosses[steps-1])
	}
	if wantLosses[steps-1] >= wantLosses[0] {
		t.Fatalf("training did not reduce loss: %v", wantLosses)
	}
}

func TestBlockPhantomMatchesRealClock(t *testing.T) {
	const h, heads, seqLen, rows = 8, 2, 2, 8
	clock := func(phantom bool) float64 {
		s := mesh.Shape{Q: 2, D: 2}
		c := dist.New(dist.Config{WorldSize: s.Size()})
		if err := c.Run(func(w *dist.Worker) error {
			p := NewProcAt(w, s)
			var b *Block
			var x *tensor.Matrix
			if phantom {
				b = NewBlockPhantom(p, h, heads, seqLen)
				x = tensor.NewPhantom(rows/4, h/2)
			} else {
				b = NewBlock(p, h, heads, seqLen, tensor.NewRNG(5))
				rng := tensor.NewRNG(uint64(w.Rank()) + 1)
				x = tensor.RandomMatrix(rows/4, h/2, rng)
			}
			y := b.Forward(p, x)
			b.Backward(p, y)
			p.DrainGradients()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return c.MaxClock()
	}
	real, ph := clock(false), clock(true)
	if real <= 0 {
		t.Fatal("expected nonzero simulated time")
	}
	rel := (real - ph) / real
	if rel > 1e-12 || rel < -1e-12 {
		t.Fatalf("phantom clock %g != real clock %g", ph, real)
	}
}

func TestBlockShapeValidation(t *testing.T) {
	runMesh(t, 2, 1, func(p *Proc) error {
		defer func() { recover() }()
		NewAttention(p, 8, 3, 2, tensor.NewRNG(1)) // 3 heads not divisible by q=2
		t.Errorf("rank %d: expected panic for heads %% q != 0", p.W.Rank())
		return nil
	})
}

func TestTransfersFormula(t *testing.T) {
	// p = 64 -> 2·64^{2/3} = 32, the denominator of the paper's 31.5×/3.75×
	// comparisons.
	got := Transfers(64)
	if got < 31.999999 || got > 32.000001 {
		t.Fatalf("Transfers(64) = %g, want 32", got)
	}
}

func TestABBlockShapeHelpers(t *testing.T) {
	runMesh(t, 2, 2, func(p *Proc) error {
		if r, c := p.ABlockShape(16, 8); r != 4 || c != 4 {
			t.Errorf("ABlockShape = %dx%d", r, c)
		}
		if r, c := p.BBlockShape(8, 6); r != 4 || c != 3 {
			t.Errorf("BBlockShape = %dx%d", r, c)
		}
		return nil
	})
}

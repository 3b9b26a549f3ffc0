package compute

import (
	"math"
	"testing"

	"repro/internal/dist"
	"repro/internal/tensor"
)

// withWorker runs fn on a single-worker cluster and returns the final clock.
func withWorker(t *testing.T, fn func(w *dist.Worker)) float64 {
	t.Helper()
	c := dist.New(dist.Config{WorldSize: 1})
	if err := c.Run(func(w *dist.Worker) error {
		fn(w)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return c.MaxClock()
}

func TestMatMulChargesAndComputes(t *testing.T) {
	rng := tensor.NewRNG(1)
	a := tensor.RandomMatrix(3, 4, rng)
	b := tensor.RandomMatrix(4, 5, rng)
	got := tensor.New(3, 5)
	clock := withWorker(t, func(w *dist.Worker) {
		MatMulInto(w, got, a, b)
	})
	if got.MaxAbsDiff(tensor.MatMul(a, b)) != 0 {
		t.Fatal("charged MatMulInto must compute the same product")
	}
	want := 2.0 * 3 * 5 * 4 / dist.MeluxinaModel().FLOPS
	if math.Abs(clock-want) > 1e-25 {
		t.Fatalf("clock %g, want %g", clock, want)
	}
}

func TestTransposedVariantsChargeSameFlops(t *testing.T) {
	rng := tensor.NewRNG(2)
	a := tensor.RandomMatrix(4, 6, rng)
	bNT := tensor.RandomMatrix(5, 6, rng)
	bTN := tensor.RandomMatrix(4, 5, rng)
	cNT := withWorker(t, func(w *dist.Worker) { MatMulNTInto(w, tensor.New(4, 5), a, bNT) })
	cTN := withWorker(t, func(w *dist.Worker) { MatMulTNInto(w, tensor.New(6, 5), a, bTN) })
	// Both are 2·m·n·k with the same m·n·k product (4·6·5).
	if cNT != cTN {
		t.Fatalf("NT charge %g != TN charge %g", cNT, cTN)
	}
}

func TestPhantomChargesEqualReal(t *testing.T) {
	rng := tensor.NewRNG(3)
	run := func(newMatrix func(r, c int) *tensor.Matrix) float64 {
		return withWorker(t, func(w *dist.Worker) {
			x := newMatrix(6, 6)
			y := newMatrix(6, 6)
			GELUTo(w, y, x)
			z := newMatrix(6, 6)
			SoftmaxRowsTo(w, z, y)
			AddTo(w, z, z, z)
			ColSumsInto(w, newMatrix(1, 6), z)
		})
	}
	realClock := run(func(r, c int) *tensor.Matrix { return tensor.RandomMatrix(r, c, rng) })
	phClock := run(tensor.NewPhantom)
	if realClock != phClock {
		t.Fatalf("phantom clock %g != real clock %g", phClock, realClock)
	}
}

func TestElementwiseResults(t *testing.T) {
	rng := tensor.NewRNG(4)
	a := tensor.RandomMatrix(3, 3, rng)
	b := tensor.RandomMatrix(3, 3, rng)
	withWorker(t, func(w *dist.Worker) {
		got := tensor.New(3, 3)
		AddTo(w, got, a, b)
		if got.MaxAbsDiff(tensor.Add(a, b)) != 0 {
			t.Error("AddTo mismatch")
		}
		v := tensor.RandomMatrix(1, 3, rng)
		c := a.Clone()
		AddRowVectorInPlace(w, c, v)
		if c.MaxAbsDiff(tensor.AddRowVector(a, v)) != 0 {
			t.Error("AddRowVectorInPlace mismatch")
		}
		sums := tensor.New(1, 3)
		ColSumsInto(w, sums, a)
		if sums.MaxAbsDiff(tensor.ColSums(a)) != 0 {
			t.Error("ColSumsInto mismatch")
		}
		GELUTo(w, got, a)
		if got.MaxAbsDiff(tensor.GELU(a)) != 0 {
			t.Error("GELUTo mismatch")
		}
		GELUGradHadamardTo(w, got, a, b)
		if got.MaxAbsDiff(tensor.Mul(b, tensor.GELUGrad(a))) != 0 {
			t.Error("GELUGradHadamardTo mismatch")
		}
		s := tensor.New(3, 3)
		SoftmaxRowsTo(w, s, a)
		if s.MaxAbsDiff(tensor.SoftmaxRows(a)) != 0 {
			t.Error("SoftmaxRowsTo mismatch")
		}
		SoftmaxRowsBackwardTo(w, got, s, b)
		if got.MaxAbsDiff(tensor.SoftmaxRowsBackward(s, b)) != 0 {
			t.Error("SoftmaxRowsBackwardTo mismatch")
		}
		acc := tensor.New(3, 3)
		MatMulInto(w, acc, a, b)
		if acc.MaxAbsDiff(tensor.MatMul(a, b)) != 0 {
			t.Error("MatMulInto mismatch")
		}
	})
}

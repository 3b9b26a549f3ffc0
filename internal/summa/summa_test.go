package summa

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// runMesh executes fn on a fresh cluster shaped for s.
func runMesh(t *testing.T, s mesh.Shape, fn func(p *mesh.Proc) error) *dist.Cluster {
	t.Helper()
	return testutil.Run(t, s.Size(), func(w *dist.Worker) error {
		return fn(mesh.NewProc(w, s))
	})
}

func globals(a, b, c, seed int) (*tensor.Matrix, *tensor.Matrix) {
	rng := tensor.NewRNG(uint64(seed))
	return tensor.RandomMatrix(a, b, rng), tensor.RandomMatrix(b, c, rng)
}

func TestMulABMatchesSerial(t *testing.T) {
	for _, tc := range []struct{ q, d, a, b, c int }{
		{1, 1, 4, 4, 4},
		{2, 1, 8, 6, 10},
		{2, 2, 8, 6, 10},
		{3, 1, 9, 6, 12},
		{4, 1, 16, 8, 12},
		{4, 2, 16, 8, 12},
		{4, 4, 16, 8, 12},
	} {
		t.Run(fmt.Sprintf("q%dd%d", tc.q, tc.d), func(t *testing.T) {
			s := mesh.Shape{Q: tc.q, D: tc.d}
			ga, gb := globals(tc.a, tc.b, tc.c, tc.q*10+tc.d)
			want := tensor.MatMul(ga, gb)
			results := testutil.NewCollector()
			runMesh(t, s, func(p *mesh.Proc) error {
				la := DistributeA(p, ga)
				lb := DistributeB(p, gb)
				lc := MulAB(p, la, lb)
				results.Put(p.W.Rank(), CollectA(p, lc))
				return nil
			})
			for r := 0; r < s.Size(); r++ {
				testutil.CheckClose(t, fmt.Sprintf("rank %d", r), results.Get(r), want, 1e-9)
			}
		})
	}
}

func TestMulABTMatchesSerial(t *testing.T) {
	// A' = C'·Bᵀ with C' A-distributed and B B-distributed.
	for _, tc := range []struct{ q, d, a, b, c int }{
		{2, 1, 8, 6, 10},
		{2, 2, 8, 6, 10},
		{3, 1, 9, 6, 12},
		{4, 2, 16, 8, 12},
	} {
		t.Run(fmt.Sprintf("q%dd%d", tc.q, tc.d), func(t *testing.T) {
			s := mesh.Shape{Q: tc.q, D: tc.d}
			rng := tensor.NewRNG(uint64(tc.q*100 + tc.d))
			gc := tensor.RandomMatrix(tc.a, tc.c, rng) // like dY
			gb := tensor.RandomMatrix(tc.b, tc.c, rng) // like W
			want := tensor.MatMulNT(gc, gb)
			results := testutil.NewCollector()
			runMesh(t, s, func(p *mesh.Proc) error {
				lc := DistributeA(p, gc)
				lb := DistributeB(p, gb)
				la := MulABT(p, lc, lb)
				results.Put(p.W.Rank(), CollectA(p, la))
				return nil
			})
			for r := 0; r < s.Size(); r++ {
				testutil.CheckClose(t, fmt.Sprintf("rank %d", r), results.Get(r), want, 1e-9)
			}
		})
	}
}

func TestMulATBMatchesSerialPerLayer(t *testing.T) {
	// B' = Aᵀ·C'. On a single layer (d=1) the per-layer result is already
	// the full product.
	for _, q := range []int{1, 2, 3, 4} {
		t.Run(fmt.Sprintf("q%d", q), func(t *testing.T) {
			s := mesh.Shape{Q: q, D: 1}
			rng := tensor.NewRNG(uint64(q))
			ga := tensor.RandomMatrix(4*q, 3*q, rng)
			gc := tensor.RandomMatrix(4*q, 2*q, rng)
			want := tensor.MatMulTN(ga, gc)
			results := testutil.NewCollector()
			runMesh(t, s, func(p *mesh.Proc) error {
				la := DistributeA(p, ga)
				lc := DistributeA(p, gc)
				lb := MulATB(p, la, lc)
				results.Put(p.W.Rank(), CollectB(p, lb))
				return nil
			})
			for r := 0; r < s.Size(); r++ {
				testutil.CheckClose(t, fmt.Sprintf("rank %d", r), results.Get(r), want, 1e-9)
			}
		})
	}
}

func TestMulATBAcrossDepthSumsToSerial(t *testing.T) {
	// With d > 1 each layer holds disjoint block rows, so the depth
	// all-reduce of per-layer results equals the full Aᵀ·C'.
	s := mesh.Shape{Q: 2, D: 2}
	rng := tensor.NewRNG(99)
	ga := tensor.RandomMatrix(8, 6, rng)
	gc := tensor.RandomMatrix(8, 4, rng)
	want := tensor.MatMulTN(ga, gc)
	results := testutil.NewCollector()
	runMesh(t, s, func(p *mesh.Proc) error {
		la := DistributeA(p, ga)
		lc := DistributeA(p, gc)
		partial := MulATB(p, la, lc)
		full := p.Depth.AllReduceInto(p.W, partial, partial)
		results.Put(p.W.Rank(), CollectB(p, full))
		return nil
	})
	for r := 0; r < s.Size(); r++ {
		testutil.CheckClose(t, fmt.Sprintf("rank %d", r), results.Get(r), want, 1e-9)
	}
}

func TestDistributeCollectRoundTrip(t *testing.T) {
	s := mesh.Shape{Q: 2, D: 2}
	rng := tensor.NewRNG(7)
	ga := tensor.RandomMatrix(8, 6, rng)
	gb := tensor.RandomMatrix(6, 4, rng)
	results := testutil.NewCollector()
	bResults := testutil.NewCollector()
	runMesh(t, s, func(p *mesh.Proc) error {
		results.Put(p.W.Rank(), CollectA(p, DistributeA(p, ga)))
		bResults.Put(p.W.Rank(), CollectB(p, DistributeB(p, gb)))
		return nil
	})
	for r := 0; r < s.Size(); r++ {
		testutil.CheckClose(t, "A roundtrip", results.Get(r), ga, 0)
		testutil.CheckClose(t, "B roundtrip", bResults.Get(r), gb, 0)
	}
}

func TestDistributeABlockPlacement(t *testing.T) {
	// Block row h = i + k·q must land on processor (i, j, k) — Figure 4a.
	s := mesh.Shape{Q: 2, D: 2}
	ga := tensor.New(8, 4) // block rows of 2 rows each
	for i := 0; i < 8; i++ {
		for j := 0; j < 4; j++ {
			ga.Set(i, j, float64(i/2)) // value = block row index
		}
	}
	runMesh(t, s, func(p *mesh.Proc) error {
		la := DistributeA(p, ga)
		if got := la.At(0, 0); got != float64(p.BlockRow()) {
			t.Errorf("proc (%d,%d,%d) holds block row %g, want %d", p.I, p.J, p.K, got, p.BlockRow())
		}
		return nil
	})
}

func TestMulABPhantomSameClock(t *testing.T) {
	// The phantom execution must charge exactly the same simulated time as
	// the real execution.
	s := mesh.Shape{Q: 2, D: 2}
	clock := func(phantom bool) float64 {
		c := dist.New(dist.Config{WorldSize: s.Size()})
		if err := c.Run(func(w *dist.Worker) error {
			p := mesh.NewProc(w, s)
			var la, lb *tensor.Matrix
			if phantom {
				la = tensor.NewPhantom(2, 3)
				lb = tensor.NewPhantom(3, 2)
			} else {
				rng := tensor.NewRNG(uint64(w.Rank()))
				la = tensor.RandomMatrix(2, 3, rng)
				lb = tensor.RandomMatrix(3, 2, rng)
			}
			MulAB(p, la, lb)
			return nil
		}); err != nil {
			return -1
		}
		return c.MaxClock()
	}
	real, ph := clock(false), clock(true)
	if real <= 0 || real != ph {
		t.Fatalf("phantom clock %g != real clock %g", ph, real)
	}
}

func TestMulABShapePanics(t *testing.T) {
	s := mesh.Shape{Q: 2, D: 1}
	c := dist.New(dist.Config{WorldSize: s.Size()})
	err := c.Run(func(w *dist.Worker) error {
		p := mesh.NewProc(w, s)
		defer func() { recover() }()
		MulAB(p, tensor.New(2, 3), tensor.New(4, 2))
		t.Errorf("rank %d: expected shape panic", w.Rank())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

package megatron

import (
	"fmt"
	"testing"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/testutil"
)

// styles are the two registered family names, one per layer style.
var styles = []string{"megatron", "seqpar"}

func layout(style string, p int) parallel.Layout {
	return parallel.Layout{Family: style, Ranks: p}
}

func runTP(t *testing.T, l parallel.Layout, fn func(mp *Proc) error) *dist.Cluster {
	t.Helper()
	return testutil.Run(t, l.Ranks, func(w *dist.Worker) error {
		return fn(newProc(w, l))
	})
}

// split returns the rank's share of a replicated activation: all of it in
// the Megatron style, its row block in the sequence-parallel style.
func split(mp *Proc, m *tensor.Matrix) *tensor.Matrix {
	if !mp.seq {
		return m
	}
	br := m.Rows / mp.P
	return m.SubMatrix(mp.Rank*br, 0, br, m.Cols)
}

// join reassembles a distributed activation on every rank.
func join(mp *Proc, local *tensor.Matrix) *tensor.Matrix {
	if !mp.seq {
		return local
	}
	return mp.Gather(local)
}

func TestColLinearMatchesSerial(t *testing.T) {
	const in, out, rows = 8, 12, 5
	for _, tp := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("p%d", tp), func(t *testing.T) {
			dataRng := tensor.NewRNG(1)
			x := tensor.RandomMatrix(rows, in, dataRng)
			dy := tensor.RandomMatrix(rows, out, dataRng)

			ref := nn.NewLinear(in, out, nn.ActGELU, true, tensor.NewRNG(9))
			wantY := ref.Forward(x)
			wantDx := ref.Backward(dy)

			ys := testutil.NewCollector()
			dxs := testutil.NewCollector()
			gws := testutil.NewCollector()
			runTP(t, layout("megatron", tp), func(mp *Proc) error {
				l := NewColLinear(mp, in, out, nn.ActGELU, true, tensor.NewRNG(9))
				bc := out / tp
				y := l.Forward(mp, x)
				dyLocal := dy.SubMatrix(0, mp.Rank*bc, rows, bc)
				dx := l.Backward(mp, dyLocal)
				// Reassemble the column-sharded output.
				parts := mp.TP.AllGather(mp.W, y)
				ys.Put(mp.W.Rank(), tensor.HCat(parts...))
				dxs.Put(mp.W.Rank(), dx)
				gparts := mp.TP.AllGather(mp.W, l.W.Grad)
				gws.Put(mp.W.Rank(), tensor.HCat(gparts...))
				return nil
			})
			testutil.CheckClose(t, "y", ys.Get(0), wantY, 1e-9)
			testutil.CheckClose(t, "dx", dxs.Get(0), wantDx, 1e-9)
			testutil.CheckClose(t, "dW", gws.Get(0), ref.W.Grad, 1e-9)
		})
	}
}

func TestRowLinearMatchesSerial(t *testing.T) {
	const in, out, rows = 12, 8, 5
	for _, tp := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("p%d", tp), func(t *testing.T) {
			dataRng := tensor.NewRNG(2)
			x := tensor.RandomMatrix(rows, in, dataRng)
			dy := tensor.RandomMatrix(rows, out, dataRng)

			ref := nn.NewLinear(in, out, nn.ActNone, true, tensor.NewRNG(11))
			wantY := ref.Forward(x)
			wantDx := ref.Backward(dy)

			ys := testutil.NewCollector()
			dxs := testutil.NewCollector()
			runTP(t, layout("megatron", tp), func(mp *Proc) error {
				l := NewRowLinear(mp, in, out, true, tensor.NewRNG(11))
				br := in / tp
				xLocal := x.SubMatrix(0, mp.Rank*br, rows, br)
				y := l.Forward(mp, xLocal)
				dx := l.Backward(mp, dy)
				ys.Put(mp.W.Rank(), y)
				parts := mp.TP.AllGather(mp.W, dx)
				dxs.Put(mp.W.Rank(), tensor.HCat(parts...))
				return nil
			})
			testutil.CheckClose(t, "y", ys.Get(0), wantY, 1e-9)
			testutil.CheckClose(t, "dx", dxs.Get(0), wantDx, 1e-9)
		})
	}
}

// forEachStyle runs fn as a subtest at p = 1, 2, 4 in the Megatron style
// ("p1") and the sequence-parallel style ("seqpar/p1").
func forEachStyle(t *testing.T, fn func(t *testing.T, l parallel.Layout)) {
	sizes := func(t *testing.T, style string) {
		for _, tp := range []int{1, 2, 4} {
			l := layout(style, tp)
			t.Run(fmt.Sprintf("p%d", tp), func(t *testing.T) { fn(t, l) })
		}
	}
	sizes(t, "megatron")
	t.Run("seqpar", func(t *testing.T) { sizes(t, "seqpar") })
}

func TestMLPMatchesSerial(t *testing.T) {
	const h, rows = 8, 8
	forEachStyle(t, func(t *testing.T, l parallel.Layout) {
		dataRng := tensor.NewRNG(3)
		x := tensor.RandomMatrix(rows, h, dataRng)
		dy := tensor.RandomMatrix(rows, h, dataRng)

		ref := nn.NewMLP(h, tensor.NewRNG(13))
		wantY := ref.Forward(x)
		wantDx := ref.Backward(dy)

		ys := testutil.NewCollector()
		dxs := testutil.NewCollector()
		runTP(t, l, func(mp *Proc) error {
			m := newMLP(mp, h, tensor.NewRNG(13))
			y := m.Forward(mp, split(mp, x))
			dx := m.Backward(mp, split(mp, dy))
			ys.Put(mp.W.Rank(), join(mp, y))
			dxs.Put(mp.W.Rank(), join(mp, dx))
			return nil
		})
		for r := 0; r < l.Ranks; r++ {
			testutil.CheckClose(t, "y", ys.Get(r), wantY, 1e-9)
			testutil.CheckClose(t, "dx", dxs.Get(r), wantDx, 1e-9)
		}
	})
}

func TestAttentionMatchesSerial(t *testing.T) {
	const h, heads, seqLen, rows = 8, 4, 3, 12
	forEachStyle(t, func(t *testing.T, l parallel.Layout) {
		dataRng := tensor.NewRNG(4)
		x := tensor.RandomMatrix(rows, h, dataRng)
		dy := tensor.RandomMatrix(rows, h, dataRng)

		ref := nn.NewMultiHeadAttention(h, heads, seqLen, tensor.NewRNG(17))
		wantY := ref.Forward(x)
		wantDx := ref.Backward(dy)

		ys := testutil.NewCollector()
		dxs := testutil.NewCollector()
		runTP(t, l, func(mp *Proc) error {
			a := NewAttention(mp, h, heads, seqLen, tensor.NewRNG(17))
			y := a.Forward(mp, split(mp, x))
			dx := a.Backward(mp, split(mp, dy))
			ys.Put(mp.W.Rank(), join(mp, y))
			dxs.Put(mp.W.Rank(), join(mp, dx))
			return nil
		})
		for r := 0; r < l.Ranks; r++ {
			testutil.CheckClose(t, "y", ys.Get(r), wantY, 1e-9)
			testutil.CheckClose(t, "dx", dxs.Get(r), wantDx, 1e-9)
		}
	})
}

func TestBlockMatchesSerial(t *testing.T) {
	const h, heads, seqLen, rows = 8, 4, 2, 8
	forEachStyle(t, func(t *testing.T, l parallel.Layout) {
		dataRng := tensor.NewRNG(5)
		x := tensor.RandomMatrix(rows, h, dataRng)
		dy := tensor.RandomMatrix(rows, h, dataRng)

		ref := nn.NewBlock(h, heads, seqLen, tensor.NewRNG(19))
		wantY := ref.Forward(x)
		wantDx := ref.Backward(dy)

		ys := testutil.NewCollector()
		dxs := testutil.NewCollector()
		testutil.Run(t, l.Ranks, func(w *dist.Worker) error {
			f := NewFamilyAt(w, l)
			b := f.NewBlock(h, heads, seqLen, tensor.NewRNG(19))
			y := b.Forward(split(f.Proc, x))
			dx := b.Backward(split(f.Proc, dy))
			ys.Put(w.Rank(), join(f.Proc, y))
			dxs.Put(w.Rank(), join(f.Proc, dx))
			return nil
		})
		for r := 0; r < l.Ranks; r++ {
			testutil.CheckClose(t, "y", ys.Get(r), wantY, 1e-8)
			testutil.CheckClose(t, "dx", dxs.Get(r), wantDx, 1e-8)
		}
	})
}

func TestBlockCollectiveCount(t *testing.T) {
	// §3.1 charges Megatron-LM with all-reduces of the replicated
	// activation: exactly 2 in the forward pass and 2 in the backward pass
	// per Transformer layer. The sequence-parallel style brackets each
	// parallel linear pair with one all-gather in and one reduce-scatter
	// out (2+2 forward); its backward pass gathers the output gradient,
	// reduce-scatters the input gradient and re-gathers the discarded
	// forward input per module (4 gathers + 2 scatters), and never
	// all-reduces an activation.
	const h, heads, seqLen, rows, tp = 8, 4, 2, 8, 4
	want := map[string]map[string]int64{
		"megatron": {"allreduce": 4, "allgather": 0, "reducescatter": 0},
		"seqpar":   {"allreduce": 0, "allgather": 6, "reducescatter": 4},
	}
	for _, style := range styles {
		t.Run(style, func(t *testing.T) {
			c := testutil.Run(t, tp, func(w *dist.Worker) error {
				f := NewFamilyAt(w, layout(style, tp))
				b := f.NewBlockPhantom(h, heads, seqLen)
				x := tensor.NewPhantom(rows/shards(f.Proc), h)
				b.Backward(b.Forward(x))
				return nil
			})
			stats := c.Stats()
			for op, n := range want[style] {
				if got := stats.PerOp[op].Calls; got != n {
					t.Errorf("block fwd+bwd performed %d %s calls, want %d", got, op, n)
				}
			}
		})
	}
}

// shards is how many ways the style splits activation rows.
func shards(mp *Proc) int {
	if mp.seq {
		return mp.P
	}
	return 1
}

func TestPhantomMatchesRealClock(t *testing.T) {
	const h, heads, seqLen, rows, tp = 8, 4, 2, 8, 4
	for _, style := range styles {
		t.Run(style, func(t *testing.T) {
			clock := func(phantom bool) float64 {
				c := testutil.Run(t, tp, func(w *dist.Worker) error {
					f := NewFamilyAt(w, layout(style, tp))
					local := rows / shards(f.Proc)
					var b parallel.Layer
					var x *tensor.Matrix
					if phantom {
						b = f.NewBlockPhantom(h, heads, seqLen)
						x = tensor.NewPhantom(local, h)
					} else {
						b = f.NewBlock(h, heads, seqLen, tensor.NewRNG(23))
						x = tensor.RandomMatrix(local, h, tensor.NewRNG(29))
					}
					b.Backward(b.Forward(x))
					return nil
				})
				return c.MaxClock()
			}
			real, ph := clock(false), clock(true)
			if real <= 0 {
				t.Fatal("expected nonzero simulated time")
			}
			// The phantom path charges attention flops as one lump sum, so
			// the clocks may differ in the last ulp from floating-point
			// association.
			if rel := (real - ph) / real; rel > 1e-12 || rel < -1e-12 {
				t.Fatalf("phantom clock %g != real clock %g", ph, real)
			}
		})
	}
}

func TestProcValidation(t *testing.T) {
	for _, style := range styles {
		t.Run(style, func(t *testing.T) {
			testutil.Run(t, 2, func(w *dist.Worker) error {
				defer func() { recover() }()
				newProc(w, layout(style, 4)) // group larger than the cluster
				t.Errorf("rank %d: expected panic", w.Rank())
				return nil
			})
		})
	}
}

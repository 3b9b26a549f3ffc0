package dist

import (
	"strings"
	"testing"

	"repro/internal/tensor"
)

// TestReduceScatterIntoMatchesReduceThenScatter pins the defining property:
// member i's block is bit-identical to reducing the full partials onto the
// group's first member (ReduceInto's binomial-tree association) and slicing
// row block i out of the sum. Group sizes cover the degenerate, the
// power-of-two and the ragged tree shapes.
func TestReduceScatterIntoMatchesReduceThenScatter(t *testing.T) {
	for _, n := range refSizes {
		for _, async := range []bool{false, true} {
			checkCases(t, refCase(opReduceScatterInto, n, 0, 2, 3, async, false))
		}
	}
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		const br, cols = 2, 3
		rows := n * br
		got := make([]*tensor.Matrix, n)
		var full *tensor.Matrix
		runWorld(t, n, func(w *Worker) error {
			g := w.Cluster().WorldGroup()
			r := w.Rank()
			dst := tensor.New(br, cols)
			if out := g.ReduceScatterInto(w, fillRank(r, rows, cols), dst); out != dst {
				t.Errorf("n=%d rank %d: ReduceScatterInto must return dst", n, r)
			}
			got[r] = dst

			var rdst *tensor.Matrix
			if r == 0 {
				rdst = tensor.New(rows, cols)
			}
			g.ReduceInto(w, 0, fillRank(r, rows, cols), rdst)
			if r == 0 {
				full = rdst
			}
			return nil
		})
		for r := 0; r < n; r++ {
			want := full.SubMatrix(r*br, 0, br, cols)
			if !got[r].Equal(want) {
				t.Fatalf("n=%d rank %d: reduce-scatter block differs bitwise from reduce+scatter", n, r)
			}
		}
	}
}

// TestIReduceScatterIntoMatchesBlockingBitwise drives the nonblocking form
// next to its blocking twin on the same inputs, mirroring the PR 3
// I-collective parity suite.
func TestIReduceScatterIntoMatchesBlockingBitwise(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8} {
		const br, cols = 3, 4
		rows := n * br
		got := make([]*tensor.Matrix, n)
		want := make([]*tensor.Matrix, n)
		runWorld(t, n, func(w *Worker) error {
			g := w.Cluster().WorldGroup()
			r := w.Rank()
			dst := tensor.New(br, cols)
			h := g.IReduceScatterInto(w, fillRank(r, rows, cols), dst)
			h.Wait()
			got[r] = dst
			dst2 := tensor.New(br, cols)
			g.ReduceScatterInto(w, fillRank(r, rows, cols), dst2)
			want[r] = dst2
			return nil
		})
		for r := 0; r < n; r++ {
			if !got[r].Equal(want[r]) {
				t.Fatalf("n=%d rank %d: IReduceScatterInto differs from ReduceScatterInto", n, r)
			}
		}
	}
}

// TestReduceScatterIntoPropagatesPhantoms: phantom partials scatter into
// phantom blocks without arithmetic, through both API flavours.
func TestReduceScatterIntoPropagatesPhantoms(t *testing.T) {
	runWorld(t, 4, func(w *Worker) error {
		g := w.Cluster().WorldGroup()
		if out := g.ReduceScatterInto(w, tensor.NewPhantom(8, 3), tensor.NewPhantom(2, 3)); !out.Phantom() {
			return errRankf(w, "phantom reduce-scatter-into lost phantomness")
		}
		dst := tensor.NewPhantom(2, 3)
		h := g.IReduceScatterInto(w, tensor.NewPhantom(8, 3), dst)
		h.Wait()
		if !dst.Phantom() {
			return errRankf(w, "phantom IReduceScatterInto lost phantomness")
		}
		return nil
	})
}

// TestReduceScatterIntoRejectsBadShapes: indivisible payload rows and
// mis-sized destinations must fail loudly at issue time.
func TestReduceScatterIntoRejectsBadShapes(t *testing.T) {
	expectPanic := func(name string, world, rows, dr, dc int) {
		c := New(Config{WorldSize: world})
		err := c.Run(func(w *Worker) error {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			g := w.Cluster().WorldGroup()
			g.ReduceScatterInto(w, tensor.New(rows, 3), tensor.New(dr, dc))
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	expectPanic("rows not divisible", 2, 5, 2, 3)
	expectPanic("dst rows wrong", 2, 6, 2, 3)
	expectPanic("dst cols wrong", 2, 6, 3, 2)
}

// TestReduceScatterChargesHalfRingAllReduce pins the pricing: the simulated
// clock advances by ReduceScatterSeconds — the first half of the ring
// all-reduce of the same payload — and the traffic lands under its own
// stats kind with the all-gather message convention.
func TestReduceScatterChargesHalfRingAllReduce(t *testing.T) {
	const n, rows, cols = 4, 8, 16
	c := New(Config{WorldSize: n})
	if err := c.Run(func(w *Worker) error {
		g := w.Cluster().WorldGroup()
		g.ReduceScatterInto(w, fillRank(w.Rank(), rows, cols), tensor.New(rows/n, cols))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	bytes := int64(rows * cols * 8)
	want := MeluxinaModel().ReduceScatterSeconds(n, bytes, false)
	if relDiffF(c.MaxClock(), want) > 1e-12 {
		t.Fatalf("reduce-scatter clock %g, want %g", c.MaxClock(), want)
	}
	if half := MeluxinaModel().AllReduceSeconds(n, bytes, false) / 2; relDiffF(want, half) > 1e-12 {
		t.Fatalf("ReduceScatterSeconds %g, want half the ring all-reduce %g", want, half)
	}
	st := c.Stats().PerOp["reducescatter"]
	if st.Calls != 1 || st.Messages != int64(n)*int64(n-1) || st.Bytes != int64(n-1)*bytes {
		t.Fatalf("reduce-scatter stats %+v, want 1 call, %d messages, %d bytes", st, n*(n-1), int64(n-1)*bytes)
	}
}

// TestReduceScatterSteadyStateAllocationFree: with workspace-pooled payload
// and destination buffers, repeated rounds must stop touching the allocator
// after warm-up — the clean baseline BenchmarkReduceScatter8 measures.
func TestReduceScatterSteadyStateAllocationFree(t *testing.T) {
	const n, rounds = 8, 5
	runWorld(t, n, func(w *Worker) error {
		g := w.Cluster().WorldGroup()
		ws := w.Workspace()
		m := ws.Get(n*4, 4)
		dst := ws.Get(4, 4)
		var warm tensor.WorkspaceStats
		for round := 0; round < rounds; round++ {
			g.ReduceScatterInto(w, m, dst)
			h := g.IReduceScatterInto(w, m, dst)
			h.Wait()
			s := ws.Stats()
			if round == 0 {
				warm = s
				continue
			}
			if s.Allocs != warm.Allocs {
				return errRankf(w, "round %d allocated: %d pool misses vs %d after warm-up", round, s.Allocs, warm.Allocs)
			}
		}
		ws.Put(m)
		ws.Put(dst)
		return nil
	})
}

// TestIReduceScatterOverlapChargesMaxNotSum: compute issued between the
// reduce-scatter's issue and Wait hides the collective, so the post-Wait
// clock is max(comm, compute), not their sum.
func TestIReduceScatterOverlapChargesMaxNotSum(t *testing.T) {
	const flops = 1e9
	elapsed := func(compute bool, async bool) float64 {
		c := New(Config{WorldSize: 4})
		if err := c.Run(func(w *Worker) error {
			g := w.Cluster().WorldGroup()
			m := tensor.New(64, 64)
			dst := tensor.New(16, 64)
			if async {
				h := g.IReduceScatterInto(w, m, dst)
				if compute {
					w.Compute(flops)
				}
				h.Wait()
			} else {
				if compute {
					w.Compute(flops)
				}
				g.ReduceScatterInto(w, m, dst)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return c.MaxClock()
	}
	commOnly := elapsed(false, false)
	compOnly := flops / MeluxinaModel().FLOPS
	wantMax := commOnly
	if compOnly > wantMax {
		wantMax = compOnly
	}
	if overlapped := elapsed(true, true); relDiffF(overlapped, wantMax) > 1e-12 {
		t.Fatalf("overlapped run %g, want max(comm %g, compute %g)", overlapped, commOnly, compOnly)
	}
}

// TestIReduceScatterSerialisesPerGroup: two in-flight reduce-scatters on one
// group share its pipeline channel and serialise in simulated time.
func TestIReduceScatterSerialisesPerGroup(t *testing.T) {
	run := func(ops int) float64 {
		c := New(Config{WorldSize: 2})
		if err := c.Run(func(w *Worker) error {
			g := w.Cluster().WorldGroup()
			hs := make([]Handle, ops)
			for i := range hs {
				hs[i] = g.IReduceScatterInto(w, tensor.New(64, 64), tensor.New(32, 64))
			}
			for i := range hs {
				hs[i].Wait()
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return c.MaxClock()
	}
	one, two := run(1), run(2)
	if relDiffF(two, 2*one) > 1e-12 {
		t.Fatalf("two reduce-scatters on one group took %g, want serialised 2×%g", two, one)
	}
}

// TestIReduceScatterHandleMisusePanics mirrors the PR 3 handle-contract
// suite for the new collective: double Wait, Put of a borrowed buffer, and
// ReleaseAll across an in-flight handle are programming errors.
func TestIReduceScatterHandleMisusePanics(t *testing.T) {
	expectPanic := func(name, want string, fn func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s: expected panic", name)
			}
			if msg, ok := r.(string); ok && want != "" && !strings.Contains(msg, want) {
				t.Fatalf("%s: panic %q missing %q", name, msg, want)
			}
		}()
		fn()
	}

	c := New(Config{WorldSize: 1})
	if err := c.Run(func(w *Worker) error {
		g := w.Cluster().WorldGroup()
		ws := w.Workspace()

		m := ws.Get(2, 2)
		dst := ws.Get(2, 2)
		h := g.IReduceScatterInto(w, m, dst)
		h.Wait()
		expectPanic("double wait", "twice", func() { h.Wait() })

		h2 := g.IReduceScatterInto(w, m, dst)
		expectPanic("put payload before wait", "borrowed", func() { ws.Put(m) })
		expectPanic("put dst before wait", "borrowed", func() { ws.Put(dst) })
		expectPanic("release all before wait", "borrowed", func() { ws.ReleaseAll() })

		h2.Wait()
		ws.Put(m) // borrows released: recycling is legal again
		ws.Put(dst)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

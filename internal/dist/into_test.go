package dist

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/tensor"
)

// errRankf wraps a formatted error with the failing rank so it surfaces
// through the cluster's abort machinery.
func errRankf(w *Worker, format string, args ...any) error {
	return fmt.Errorf("rank %d: %s", w.Rank(), fmt.Sprintf(format, args...))
}

// fillRank gives each rank a distinct deterministic matrix. The values
// are signed, span 48 binades and sit a third off the binary grid, so sums
// of them round differently under every change of association.
func fillRank(rank, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float64((rank*7+i*3)%11-5) * math.Ldexp(1, (rank*5+i)%13*4-24) / 3
	}
	return m
}

// TestBroadcastIntoMatchesBroadcast: every member ends with the root's
// payload, bit for bit, at the reference clock and traffic, for every root
// of every group size, blocking or not, in place at the root or not.
func TestBroadcastIntoMatchesBroadcast(t *testing.T) {
	for _, n := range refSizes {
		for root := 0; root < n; root++ {
			for _, async := range []bool{false, true} {
				checkCases(t, refCase(opBroadcastInto, n, root, 3, 5, async, false),
					refCase(opBroadcastInto, n, root, 3, 5, async, true))
			}
		}
	}
}

func TestBroadcastIntoRootMayMutateImmediately(t *testing.T) {
	// The documented contract: no member aliases the root's payload after
	// return, so the root may overwrite it while peers still hold their
	// copies.
	const n, root = 4, 0
	got := make([]*tensor.Matrix, n)
	runWorld(t, n, func(w *Worker) error {
		g := w.Cluster().WorldGroup()
		if w.Rank() == root {
			payload := fillRank(7, 2, 2)
			g.BroadcastInto(w, root, payload, payload)
			payload.Fill(-1) // must not be visible to any peer
			got[w.Rank()] = fillRank(7, 2, 2)
		} else {
			dst := tensor.New(2, 2)
			g.BroadcastInto(w, root, nil, dst)
			got[w.Rank()] = dst
		}
		return nil
	})
	want := fillRank(7, 2, 2)
	for r := 1; r < n; r++ {
		if !got[r].Equal(want) {
			t.Fatalf("rank %d saw the root's post-broadcast mutation", r)
		}
	}
}

// TestReduceIntoMatchesReduceBitwise: the root's sum equals the reference
// binomial tree rooted at the root, bit for bit, for every root of every
// group size, blocking or not, into a separate accumulator or in place.
func TestReduceIntoMatchesReduceBitwise(t *testing.T) {
	for _, n := range refSizes {
		for root := 0; root < n; root++ {
			for _, async := range []bool{false, true} {
				checkCases(t, refCase(opReduceInto, n, root, 4, 4, async, false),
					refCase(opReduceInto, n, root, 4, 4, async, true))
			}
		}
	}
}

// TestAllReduceIntoMatchesAllReduceBitwise: every member holds the
// reference tree sum rooted at the first member, bit for bit, blocking or
// not, in place or into a separate destination.
func TestAllReduceIntoMatchesAllReduceBitwise(t *testing.T) {
	for _, n := range refSizes {
		for _, async := range []bool{false, true} {
			checkCases(t, refCase(opAllReduceInto, n, 0, 3, 3, async, false),
				refCase(opAllReduceInto, n, 0, 3, 3, async, true))
		}
	}
}

func TestReduceIntoConsumesPartialBeforeReturn(t *testing.T) {
	// SUMMA's reuse contract: a member may overwrite its partial the moment
	// ReduceInto returns. Run several rounds reusing one buffer per member
	// and check the root's sums against the reference on fresh inputs.
	const n, rounds = 4, 3
	sums := make([]*tensor.Matrix, rounds)
	runWorld(t, n, func(w *Worker) error {
		g := w.Cluster().WorldGroup()
		partial := tensor.New(2, 2)
		var dst *tensor.Matrix
		if w.Rank() == 0 {
			dst = tensor.New(2, 2)
		}
		for round := 0; round < rounds; round++ {
			copy(partial.Data, fillRank(w.Rank()+round*10, 2, 2).Data)
			r := g.ReduceInto(w, 0, partial, dst)
			if w.Rank() == 0 {
				sums[round] = r.Clone()
			}
		}
		return nil
	})
	for round := 0; round < rounds; round++ {
		in := make([]*tensor.Matrix, n)
		for r := range in {
			in[r] = fillRank(r+round*10, 2, 2)
		}
		if !sameBits(sums[round], refReduce(in, 0)) {
			t.Fatalf("round %d: reused-partial ReduceInto corrupted the sum", round)
		}
	}
}

func TestIntoCollectivesSteadyStateAllocationFree(t *testing.T) {
	// Groups larger than two have interior tree nodes whose accumulators
	// used to be fresh allocations. They now come from the worker's pool,
	// so after a warm-up round the workspace must stop allocating — on an
	// 8-member group, not just the benchmarked pairs.
	const n, rounds = 8, 5
	runWorld(t, n, func(w *Worker) error {
		g := w.Cluster().WorldGroup()
		m := fillRank(w.Rank(), 4, 4)
		dst := tensor.New(4, 4)
		var warm tensor.WorkspaceStats
		for round := 0; round < rounds; round++ {
			g.AllReduceInto(w, m, dst)
			var rdst *tensor.Matrix
			if w.Rank() == 0 {
				rdst = dst
			}
			g.ReduceInto(w, 0, m, rdst)
			s := w.Workspace().Stats()
			if round == 0 {
				warm = s
				continue
			}
			if s.Allocs != warm.Allocs {
				return errRankf(w, "round %d allocated: %d pool misses vs %d after warm-up", round, s.Allocs, warm.Allocs)
			}
			if s.Live != 0 {
				return errRankf(w, "round %d leaked %d collective scratch buffers", round, s.Live)
			}
		}
		return nil
	})
}

func TestIntoCollectivesPropagatePhantoms(t *testing.T) {
	for _, kind := range []opKind{opBroadcastInto, opReduceInto, opAllReduceInto, opAllGatherInto, opReduceScatterInto} {
		c := refCase(kind, 4, 1, 4, 4, false, false)
		for r := range c.in {
			c.in[r] = tensor.NewPhantom(c.in[r].Rows, c.in[r].Cols)
		}
		checkCases(t, c)
	}
	runWorld(t, 4, func(w *Worker) error {
		g := w.Cluster().WorldGroup()
		ph := tensor.NewPhantom(4, 4)
		dst := tensor.NewPhantom(4, 4)
		if out := g.AllReduceInto(w, ph, dst); !out.Phantom() {
			t.Error("phantom all-reduce-into must stay phantom")
		}
		if w.Rank() == 1 {
			g.BroadcastInto(w, 1, ph, ph)
		} else {
			if out := g.BroadcastInto(w, 1, nil, tensor.NewPhantom(4, 4)); !out.Phantom() {
				t.Error("phantom broadcast-into must stay phantom")
			}
		}
		return nil
	})
}

func TestIntoCollectivesChargeLikeClassic(t *testing.T) {
	// A sequence of collectives on one group advances the clocks by the
	// sum of the classic α–β charges the CostModel exports, in issue order.
	c := New(Config{WorldSize: 4})
	if err := c.Run(func(w *Worker) error {
		g := c.WorldGroup()
		m := tensor.New(8, 8)
		if w.Rank() == 0 {
			g.BroadcastInto(w, 0, m, m)
		} else {
			g.BroadcastInto(w, 0, nil, m)
		}
		var dst *tensor.Matrix
		if w.Rank() == 0 {
			dst = tensor.New(8, 8)
		}
		g.ReduceInto(w, 0, m, dst)
		g.AllReduceInto(w, m, m)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	cost := MeluxinaModel()
	const b = 8 * 8 * 8
	want := cost.BroadcastSeconds(4, b, false) + cost.ReduceSeconds(4, b, false) + cost.AllReduceSeconds(4, b, false)
	if got := c.MaxClock(); got != want {
		t.Fatalf("simulated time %g, want the α–β sum %g", got, want)
	}
}

// TestAllGatherInto covers both orientations against the reference on
// every group size, phantom propagation, and shape validation.
func TestAllGatherInto(t *testing.T) {
	for _, n := range refSizes {
		for _, byRows := range []bool{false, true} {
			c := refCase(opAllGatherInto, n, 0, 2, 3, false, false)
			c.byRows = byRows
			checkCases(t, c)
		}
	}
	const n = 4

	// Phantom blocks gather into a phantom destination without arithmetic.
	runWorld(t, n, func(w *Worker) error {
		g := w.Cluster().WorldGroup()
		out := g.AllGatherInto(w, tensor.NewPhantom(2, 3), tensor.NewPhantom(n*2, 3))
		if !out.Phantom() {
			return errRankf(w, "phantom allgather-into lost phantomness")
		}
		return nil
	})

	// Mismatched destination shapes must fail loudly.
	c := New(Config{WorldSize: 1})
	err := c.Run(func(w *Worker) error {
		defer func() {
			if recover() == nil {
				t.Error("bad dst shape should panic")
			}
		}()
		g := w.Cluster().WorldGroup()
		g.AllGatherInto(w, tensor.New(2, 3), tensor.New(5, 5))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

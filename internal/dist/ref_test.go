package dist

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"repro/internal/tensor"
)

// This file is the sequential reference the collectives are checked
// against: the data every member must hold afterwards, the clock the
// cluster must reach and the traffic it must record, computed on one
// goroutine from a recursive statement of the binomial-tree sum and the
// exported CostModel prices. It shares no code with the rendezvous engine
// in group.go.

// refGPUsPerNode fixes the node size of every reference cluster, so a
// group of more than four ranks spans nodes and pays the inter-node rate.
const refGPUsPerNode = 4

// refTreeSum sums vs in the association of a binomial reduction tree over
// their order: the first 2^k values (2^k the largest power of two below
// len(vs)) form one complete subtree, the remaining values the other, and
// the two partial sums add left to right.
func refTreeSum(vs []float64) float64 {
	if len(vs) == 1 {
		return vs[0]
	}
	h := 1
	for 2*h < len(vs) {
		h *= 2
	}
	return refTreeSum(vs[:h]) + refTreeSum(vs[h:])
}

// refReduce sums the members' matrices in the tree rooted at member root:
// virtual position v of the tree is member (root+v) mod n.
func refReduce(in []*tensor.Matrix, root int) *tensor.Matrix {
	n := len(in)
	out := tensor.New(in[0].Rows, in[0].Cols)
	vs := make([]float64, n)
	for e := range out.Data {
		for v := range vs {
			vs[v] = in[(root+v)%n].Data[e]
		}
		out.Data[e] = refTreeSum(vs)
	}
	return out
}

// refConcat stacks the blocks in member order, vertically or side by side.
func refConcat(in []*tensor.Matrix, byRows bool) *tensor.Matrix {
	n, br, bc := len(in), in[0].Rows, in[0].Cols
	rows, cols := br, n*bc
	if byRows {
		rows, cols = n*br, bc
	}
	out := tensor.New(rows, cols)
	for v, b := range in {
		for i := 0; i < br; i++ {
			for j := 0; j < bc; j++ {
				if byRows {
					out.Data[(v*br+i)*cols+j] = b.Data[i*bc+j]
				} else {
					out.Data[i*cols+v*bc+j] = b.Data[i*bc+j]
				}
			}
		}
	}
	return out
}

// collCase is one collective on the world group of a fresh cluster.
type collCase struct {
	kind opKind
	n    int
	root int // group index of the root (broadcast and reduce only)
	// in holds every member's input, all of one shape, all real or all
	// phantom. A broadcast reads only the root's.
	in []*tensor.Matrix
	// skew is each member's compute in flops: run before a blocking call,
	// or between issue and Wait when async is set.
	skew    []float64
	async   bool // use the I-form (all-gather has none and stays blocking)
	inPlace bool // the output aliases the input: broadcast and reduce roots, all-reduce
	byRows  bool // all-gather stacks the blocks vertically
}

func (c collCase) String() string {
	return fmt.Sprintf("%s n=%d root=%d %dx%d phantom=%v async=%v inPlace=%v byRows=%v",
		c.kind, c.n, c.root, c.in[0].Rows, c.in[0].Cols, c.in[0].Phantom(), c.async, c.inPlace, c.byRows)
}

// refOutcome is what the case must produce: each member's output (nil for
// a reduce's non-root members), the cluster's MaxClock and its Stats.
func (c collCase) refOutcome() (out []*tensor.Matrix, clock float64, stats Stats) {
	n, in := c.n, c.in
	phantom := in[0].Phantom()
	b := matrixBytes(in[0])
	cost := MeluxinaModel()
	inter := n > refGPUsPerNode
	out = make([]*tensor.Matrix, n)
	var op string
	var secs float64
	var msgs, bytes int64
	n64 := int64(n)
	switch c.kind {
	case opBroadcastInto:
		op, secs, msgs, bytes = "broadcast", cost.BroadcastSeconds(n, b, inter), n64-1, (n64-1)*b
		for r := range out {
			out[r] = in[c.root].Clone()
		}
	case opReduceInto:
		op, secs, msgs, bytes = "reduce", cost.ReduceSeconds(n, b, inter), n64-1, (n64-1)*b
		if phantom {
			out[c.root] = in[0].Clone()
		} else {
			out[c.root] = refReduce(in, c.root)
		}
	case opAllReduceInto:
		op, secs, msgs, bytes = "allreduce", cost.AllReduceSeconds(n, b, inter), 2*(n64-1), 2*(n64-1)*b
		for r := range out {
			if phantom {
				out[r] = in[0].Clone()
			} else {
				out[r] = refReduce(in, 0)
			}
		}
	case opAllGatherInto:
		op, secs, msgs, bytes = "allgather", cost.AllGatherSeconds(n, b, inter), n64*(n64-1), (n64-1)*n64*b
		for r := range out {
			switch {
			case !phantom:
				out[r] = refConcat(in, c.byRows)
			case c.byRows:
				out[r] = tensor.NewPhantom(n*in[0].Rows, in[0].Cols)
			default:
				out[r] = tensor.NewPhantom(in[0].Rows, n*in[0].Cols)
			}
		}
	case opReduceScatterInto:
		op, secs, msgs, bytes = "reducescatter", cost.ReduceScatterSeconds(n, b, inter), n64*(n64-1), (n64-1)*b
		br, cols := in[0].Rows/n, in[0].Cols
		for r := range out {
			if phantom {
				out[r] = tensor.NewPhantom(br, cols)
			} else {
				out[r] = refReduce(in, 0).SubMatrix(r*br, 0, br, cols)
			}
		}
	default:
		panic(fmt.Sprintf("no reference for %s", c.kind))
	}
	skewSecs := math.Inf(-1)
	for _, f := range c.skew {
		skewSecs = math.Max(skewSecs, f/cost.FLOPS)
	}
	if c.async && c.kind != opAllGatherInto {
		// The collective starts at 0 and overlaps each member's compute.
		clock = math.Max(skewSecs, secs)
	} else {
		clock = skewSecs + secs
	}
	stats = Stats{Messages: msgs, Bytes: bytes, PerOp: map[string]OpStats{op: {Calls: 1, Messages: msgs, Bytes: bytes}}}
	return out, clock, stats
}

// newAs allocates a rows×cols matrix that is phantom exactly when like is.
func newAs(like *tensor.Matrix, rows, cols int) *tensor.Matrix {
	if like.Phantom() {
		return tensor.NewPhantom(rows, cols)
	}
	return tensor.New(rows, cols)
}

// run executes the case on a fresh cluster and returns each member's
// output with the cluster's MaxClock and Stats. A member whose input
// changed although it was not the output fails the run.
func (c collCase) run() ([]*tensor.Matrix, float64, Stats, error) {
	cl := New(Config{WorldSize: c.n, GPUsPerNode: refGPUsPerNode})
	out := make([]*tensor.Matrix, c.n)
	err := cl.Run(func(w *Worker) error {
		g := cl.WorldGroup()
		r := w.Rank()
		m := c.in[r].Clone()
		rows, cols := m.Rows, m.Cols
		issue := func(blocking func() *tensor.Matrix, async func() Handle) {
			if c.async && async != nil {
				h := async()
				w.Compute(c.skew[r])
				h.Wait()
				return
			}
			w.Compute(c.skew[r])
			out[r] = blocking()
		}
		var dst *tensor.Matrix
		aliased := false
		switch c.kind {
		case opBroadcastInto:
			var payload *tensor.Matrix
			dst = newAs(m, rows, cols)
			if r == c.root {
				payload = m
				if c.inPlace {
					dst, aliased = m, true
				}
			}
			issue(func() *tensor.Matrix { return g.BroadcastInto(w, c.root, payload, dst) },
				func() Handle { return g.IBroadcastInto(w, c.root, payload, dst) })
		case opReduceInto:
			if r == c.root {
				dst = newAs(m, rows, cols)
				if c.inPlace {
					dst, aliased = m, true
				}
			}
			issue(func() *tensor.Matrix { return g.ReduceInto(w, c.root, m, dst) },
				func() Handle { return g.IReduceInto(w, c.root, m, dst) })
		case opAllReduceInto:
			dst = newAs(m, rows, cols)
			if c.inPlace {
				dst, aliased = m, true
			}
			issue(func() *tensor.Matrix { return g.AllReduceInto(w, m, dst) },
				func() Handle { return g.IAllReduceInto(w, m, dst) })
		case opAllGatherInto:
			if c.byRows {
				dst = newAs(m, c.n*rows, cols)
			} else {
				dst = newAs(m, rows, c.n*cols)
			}
			issue(func() *tensor.Matrix { return g.AllGatherInto(w, m, dst) }, nil)
		case opReduceScatterInto:
			dst = newAs(m, rows/c.n, cols)
			issue(func() *tensor.Matrix { return g.ReduceScatterInto(w, m, dst) },
				func() Handle { return g.IReduceScatterInto(w, m, dst) })
		}
		if c.async && c.kind != opAllGatherInto {
			out[r] = dst
		} else if out[r] != dst {
			return fmt.Errorf("rank %d: %s returned %p, not its dst %p", r, c.kind, out[r], dst)
		}
		if !aliased && !sameBits(m, c.in[r]) {
			return fmt.Errorf("rank %d: %s modified its input", r, c.kind)
		}
		return nil
	})
	if err != nil {
		return nil, 0, Stats{}, err
	}
	return out, cl.MaxClock(), cl.Stats(), nil
}

// check runs the case and compares data (bitwise), MaxClock and Stats with
// the reference.
func (c collCase) check() error {
	got, clock, stats, err := c.run()
	if err != nil {
		return fmt.Errorf("%v: %w", c, err)
	}
	want, wantClock, wantStats := c.refOutcome()
	for r := range want {
		if (got[r] == nil) != (want[r] == nil) || got[r] != nil && !sameBits(got[r], want[r]) {
			return fmt.Errorf("%v: rank %d holds %v, reference %v", c, r, got[r], want[r])
		}
	}
	if math.Float64bits(clock) != math.Float64bits(wantClock) {
		return fmt.Errorf("%v: MaxClock %g, reference %g", c, clock, wantClock)
	}
	if !reflect.DeepEqual(stats, wantStats) {
		return fmt.Errorf("%v: Stats %+v, reference %+v", c, stats, wantStats)
	}
	return nil
}

// sameBits reports equal shape, equal phantomness and bitwise-equal data.
func sameBits(a, b *tensor.Matrix) bool {
	if !a.SameShape(b) || a.Phantom() != b.Phantom() || len(a.Data) != len(b.Data) {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// refCase builds a case over fillRank inputs of the given block shape with
// every member skewed by a different amount of compute.
func refCase(kind opKind, n, root, rows, cols int, async, inPlace bool) collCase {
	c := collCase{kind: kind, n: n, root: root, async: async, inPlace: inPlace}
	if kind == opReduceScatterInto {
		rows *= n
	}
	for r := 0; r < n; r++ {
		c.in = append(c.in, fillRank(r, rows, cols))
		c.skew = append(c.skew, float64((r*5)%n)*1e8)
	}
	return c
}

// refSizes covers the degenerate, power-of-two, ragged and inter-node
// group sizes.
var refSizes = []int{1, 2, 3, 4, 5, 6, 7, 8}

// TestRefTreeSumAssociation pins the reference's own association on
// values where every grouping gives different bits: ((a+b)+(c+d))+e.
func TestRefTreeSumAssociation(t *testing.T) {
	vs := []float64{1e16, 1, -1e16, 1, 0.5}
	want := ((vs[0] + vs[1]) + (vs[2] + vs[3])) + vs[4]
	if got := refTreeSum(vs); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("refTreeSum = %g, want %g", got, want)
	}
	if seq := (((vs[0] + vs[1]) + vs[2]) + vs[3]) + vs[4]; seq == want {
		t.Fatalf("test values do not distinguish the tree from a left fold")
	}
}

// checkCases fails the test on the first case that departs from the
// reference.
func checkCases(t *testing.T, cases ...collCase) {
	t.Helper()
	for _, c := range cases {
		if err := c.check(); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzCollectives decodes bytes into one collective — kind, group size
// (1–8), root, block shape, values, per-member compute skew, blocking or
// nonblocking issue, in-place or separate destination, phantom or real —
// and requires bitwise data, MaxClock and Stats equal to the sequential
// reference.
func FuzzCollectives(f *testing.F) {
	f.Add([]byte{0, 3, 1, 0, 2, 2, 9, 200, 3, 17})
	f.Add([]byte{1, 6, 4, 2, 1, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{2, 7, 0, 3, 2, 2, 255, 0, 128, 64, 32, 16, 8, 4, 2, 1})
	f.Add([]byte{3, 5, 0, 4, 1, 2, 40, 41, 42, 43})
	f.Add([]byte{4, 8, 0, 1, 0, 2, 99, 98, 97, 96, 95, 94})
	f.Add([]byte{2, 4, 0, 8, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := decodeCase(data).check(); err != nil {
			t.Fatal(err)
		}
	})
}

// decodeCase maps arbitrary bytes onto a valid case; missing bytes read
// as zero.
func decodeCase(data []byte) collCase {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	kinds := []opKind{opBroadcastInto, opReduceInto, opAllReduceInto, opAllGatherInto, opReduceScatterInto}
	c := collCase{kind: kinds[int(next())%len(kinds)], n: 1 + int(next())%8}
	c.root = int(next()) % c.n
	flags := next()
	c.async, c.inPlace, c.byRows = flags&1 != 0, flags&2 != 0, flags&4 != 0
	phantom := flags&8 != 0
	rows, cols := 1+int(next())%3, 1+int(next())%3
	if c.kind == opReduceScatterInto {
		rows *= c.n
	}
	for r := 0; r < c.n; r++ {
		c.skew = append(c.skew, float64(next())*1e8)
		if phantom {
			c.in = append(c.in, tensor.NewPhantom(rows, cols))
			continue
		}
		m := tensor.New(rows, cols)
		for i := range m.Data {
			// Signed values over 64 binades, a third off the binary grid,
			// so every change of association changes the bits.
			m.Data[i] = float64(int8(next())) * math.Ldexp(1, int(next()%64)-32) / 3
		}
		c.in = append(c.in, m)
	}
	return c
}

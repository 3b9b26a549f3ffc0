package dist

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/tensor"
)

// Group is a communicator over a fixed, ordered set of cluster ranks. The
// rank list passed to Cluster.Group is the canonical order: AllGatherInto
// concatenates blocks in it, Index maps a cluster rank to its slot. Members
// must invoke the same sequence of collectives on a group — blocking calls and
// nonblocking issues count alike, in per-member program order; the runtime
// checks that the arrivals pairing into one operation agree on the kind and
// root.
type Group struct {
	c     *Cluster
	ranks []int
	index map[int]int
	beta  float64 // per-byte cost of the slowest link the group spans

	mu    sync.Mutex
	open  []*round // incomplete operations, oldest first
	spare []*round // retired rounds, recycled to keep collectives off the allocator

	// lastFinish is the simulated time the group's previous operation
	// completed. Operations on one group serialise behind it — the group
	// models a single pipeline channel over its links — while operations
	// on different groups (a mesh row versus its columns, say) may overlap
	// freely, which is what the double-buffered SUMMA schedules exploit.
	lastFinish float64

	vdata [][]float64 // finish()-local scratch: slot data in virtual tree order
}

// opKind names the collective an arrival wants to run; arrivals pairing
// into one round must agree on it.
type opKind uint8

const (
	opBroadcastInto opKind = iota
	opReduceInto
	opAllReduceInto
	opAllGatherInto
	opReduceScatterInto
	opBarrier
)

var opKindNames = [...]string{
	"broadcast-into", "reduce-into", "allreduce-into", "allgather-into",
	"reduce-scatter-into", "barrier",
}

func (k opKind) String() string { return opKindNames[k] }

// round is one collective operation in flight: every member contributes its
// clock and payload/destination slots, and the last member to arrive
// computes the outcome — data movement, summation, time and statistics —
// exactly once, under the group lock. Because the whole outcome is a pure
// function of the slots (sums combine in virtual binomial-tree order, never
// in arrival order), results are bit-identical across runs and identical to
// the distributed tree schedule this engine replaced.
//
// Arrivals need not block: a nonblocking issue fills its slot and returns a
// Handle, and the member collects the outcome at Wait. Rounds are recycled
// through the spare list once every member has retired.
//
// done is a buffered token channel rather than a closed one so it survives
// recycling: the finisher deposits exactly one token per member registered
// in r.parked (members that committed to blocking before completion), each
// parked member consumes exactly one, and members that observe completion
// first never touch the channel at all — so deposits always equal
// consumptions and the drained channel is ready for the next round without
// reallocation. completed is set after the deposits; parking registration
// and completion serialise under the group lock.
type round struct {
	kind    opKind
	root    int // group index of the root, -1 for rootless ops
	arrived int
	parked  int // members registered on the done channel before completion
	exited  atomic.Int32
	filled  []bool
	waited  []bool // per-member: a nonblocking handle already waited this slot
	clocks  []float64
	steps   []int // per-member step index at arrival, for fault activation
	slots   []*tensor.Matrix
	dsts    []*tensor.Matrix
	done    chan struct{}

	// gen increments every time the round is recycled, so a stale Handle
	// (kept past its Wait while the round moved on) is detected instead of
	// silently corrupting a live operation.
	gen atomic.Uint32

	completed atomic.Bool

	// commBase is the time the operation actually starts (latest member
	// arrival and the group channel both ready), newClock its completion
	// time. newClock − commBase is the comm time the overlap statistics
	// attribute to the operation.
	commBase float64
	newClock float64
}

func newGroup(c *Cluster, ranks []int) *Group {
	g := &Group{
		c:     c,
		ranks: append([]int(nil), ranks...),
		index: make(map[int]int, len(ranks)),
		beta:  c.cost.BetaIntra,
	}
	for i, r := range g.ranks {
		if _, dup := g.index[r]; dup {
			panic(fmt.Sprintf("dist: duplicate rank %d in group %v", r, g.ranks))
		}
		g.index[r] = i
		if c.node(r) != c.node(g.ranks[0]) {
			g.beta = c.cost.BetaInter
		}
	}
	return g
}

// Size returns the number of members.
func (g *Group) Size() int { return len(g.ranks) }

// Ranks returns the members in canonical order.
func (g *Group) Ranks() []int { return append([]int(nil), g.ranks...) }

// Index returns the slot of a cluster rank in the canonical order, or −1
// if the rank is not a member.
func (g *Group) Index(rank int) int {
	if i, ok := g.index[rank]; ok {
		return i
	}
	return -1
}

// mustIndex resolves the calling worker's slot, panicking for non-members.
func (g *Group) mustIndex(w *Worker, op opKind) int {
	idx, ok := g.index[w.rank]
	if !ok {
		panic(fmt.Sprintf("dist: rank %d is not a member of group %v (%s)", w.rank, g.ranks, op))
	}
	return idx
}

// join files the caller's arrival for its next operation on this group: the
// oldest open round this member has not joined yet, or a fresh one. It
// never blocks. If the arrival completes the round, the caller runs finish
// inline and wakes the parked members. Returns the round and whether the
// caller was the finisher.
func (g *Group) join(w *Worker, kind opKind, root, idx int, slot, dst *tensor.Matrix) (*round, bool) {
	w.c.checkAbort()
	g.mu.Lock()
	var r *round
	for _, cand := range g.open {
		if !cand.filled[idx] {
			r = cand
			break
		}
	}
	if r == nil {
		r = g.newRound(kind, root)
		g.open = append(g.open, r)
	}
	if r.kind != kind || r.root != root {
		g.mu.Unlock()
		panic(fmt.Sprintf("dist: rank %d joined %s(root %d) while group %v is running %s(root %d)",
			w.rank, kind, rootRank(g, root), g.ranks, r.kind, rootRank(g, r.root)))
	}
	r.filled[idx] = true
	r.clocks[idx] = w.clock
	r.steps[idx] = w.step
	r.slots[idx] = slot
	r.dsts[idx] = dst
	r.arrived++
	last := r.arrived == len(g.ranks)
	if last {
		// Members fill rounds oldest-first, so a complete round is
		// necessarily the oldest open one.
		if g.open[0] != r {
			g.mu.Unlock()
			panic(fmt.Sprintf("dist: group %v completed %s out of order", g.ranks, kind))
		}
		copy(g.open, g.open[1:])
		g.open[len(g.open)-1] = nil
		g.open = g.open[:len(g.open)-1]
		g.finish(w.rank, r)
		for i := 0; i < r.parked; i++ {
			r.done <- struct{}{}
		}
		r.completed.Store(true)
	}
	g.mu.Unlock()
	return r, last
}

func rootRank(g *Group, rootIdx int) int {
	if rootIdx < 0 {
		return -1
	}
	return g.ranks[rootIdx]
}

// waitRound parks the caller until the round completes (the finisher and
// post-completion waiters pass through without blocking), then advances the
// caller's clock to the operation's completion time and accounts how much of
// the operation's comm time the caller's own compute hid.
func (g *Group) waitRound(w *Worker, r *round, finisher bool) {
	if !finisher && !r.completed.Load() {
		// Register as parked under the lock (tokens are deposited only for
		// registered parkers, so a recycled round's channel is always
		// drained), unless completion raced ahead of us.
		g.mu.Lock()
		parking := !r.completed.Load()
		if parking {
			r.parked++
		}
		g.mu.Unlock()
		if parking {
			select {
			case <-r.done:
			case <-w.c.abort:
				panic(abortSignal{})
			}
		}
	}
	if total := r.newClock - r.commBase; total > 0 {
		hidden := w.clock - r.commBase
		if hidden < 0 {
			hidden = 0
		} else if hidden > total {
			hidden = total
		}
		w.commTotal += total
		w.commHidden += hidden
	}
	if r.newClock > w.clock {
		w.clock = r.newClock
	}
}

// newRound recycles a spare round or allocates the group's first few. The
// caller must hold g.mu.
func (g *Group) newRound(kind opKind, root int) *round {
	n := len(g.ranks)
	if s := len(g.spare); s > 0 {
		r := g.spare[s-1]
		g.spare[s-1] = nil
		g.spare = g.spare[:s-1]
		r.kind, r.root = kind, root
		r.arrived, r.parked = 0, 0
		r.exited.Store(0)
		r.gen.Add(1)
		for i := 0; i < n; i++ {
			r.filled[i] = false
			r.waited[i] = false
			r.clocks[i] = 0
			r.steps[i] = 0
			r.slots[i], r.dsts[i] = nil, nil
		}
		r.completed.Store(false)
		r.commBase, r.newClock = 0, 0
		return r
	}
	return &round{
		kind:   kind,
		root:   root,
		filled: make([]bool, n),
		waited: make([]bool, n),
		clocks: make([]float64, n),
		steps:  make([]int, n),
		slots:  make([]*tensor.Matrix, n),
		dsts:   make([]*tensor.Matrix, n),
		done:   make(chan struct{}, n),
	}
}

// retire signals that the caller is done reading r. The last member to
// retire returns the round to the spare list; until then recycling is
// blocked, so other members can still read the outcome safely. A member
// unwound by an abort never retires — that round is simply dropped to the
// garbage collector along with the poisoned cluster.
func (g *Group) retire(r *round) {
	if int(r.exited.Add(1)) != len(g.ranks) {
		return
	}
	// Drop payload references now rather than at reuse: a group that goes
	// quiet must not pin its last collective's matrices.
	for i := range r.slots {
		r.slots[i], r.dsts[i] = nil, nil
	}
	g.mu.Lock()
	g.spare = append(g.spare, r)
	g.mu.Unlock()
}

// finish computes a completed round's outcome exactly once, under g.mu:
// data movement and summation, the post-op clock, and the traffic
// statistics. It runs on whichever member arrived last, but everything it
// computes is a pure function of the slots, so the outcome is independent
// of scheduling.
func (g *Group) finish(rank int, r *round) {
	n := len(g.ranks)
	r.commBase = maxClock(r.clocks)
	if g.lastFinish > r.commBase {
		r.commBase = g.lastFinish
	}
	cost := &g.c.cost
	switch r.kind {
	case opBroadcastInto:
		m := r.slots[r.root]
		if m == nil {
			panic(fmt.Sprintf("dist: broadcast root %d passed a nil payload", rootRank(g, r.root)))
		}
		for _, d := range r.dsts {
			if d == m {
				// The root broadcasting into its own payload (the in-place
				// idiom) needs no copy.
				continue
			}
			tensor.CopyInto(d, m)
		}
		bytes := matrixBytes(m)
		r.newClock = r.commBase + cost.broadcastTime(n, bytes, g.beta)
		g.c.stats.record(rank, statBroadcast, int64(n-1), int64(n-1)*bytes)

	case opReduceInto:
		g.combineInto(r, r.dsts[r.root])
		bytes := matrixBytes(r.slots[r.root])
		r.newClock = r.commBase + cost.broadcastTime(n, bytes, g.beta)
		g.c.stats.record(rank, statReduce, int64(n-1), int64(n-1)*bytes)

	case opAllReduceInto:
		dst := r.dsts[0]
		g.combineInto(r, dst)
		for i := 1; i < n; i++ {
			tensor.CopyInto(r.dsts[i], dst)
		}
		bytes := matrixBytes(r.slots[0])
		r.newClock = r.commBase + cost.allReduceTime(n, bytes, g.beta)
		g.c.stats.record(rank, statAllReduce, 2*int64(n-1), 2*int64(n-1)*bytes)

	case opAllGatherInto:
		g.gatherInto(r)
		bytes := matrixBytes(r.slots[0])
		r.newClock = r.commBase + cost.allGatherTime(n, bytes, g.beta)
		g.c.stats.record(rank, statAllGather, int64(n)*int64(n-1), int64(n-1)*int64(n)*bytes)

	case opReduceScatterInto:
		g.scatterCombineInto(r)
		bytes := matrixBytes(r.slots[0])
		r.newClock = r.commBase + cost.reduceScatterTime(n, bytes, g.beta)
		g.c.stats.record(rank, statReduceScatter, int64(n)*int64(n-1), int64(n-1)*bytes)

	case opBarrier:
		r.newClock = r.commBase + cost.barrierTime(n)
		g.c.stats.record(rank, statBarrier, 0, 0)
	}
	if f := g.c.fault; f != nil {
		// The operation runs at the latest member step (faults activate by
		// the furthest-along participant's window). Degraded links stretch
		// the wire time, transient collective failures add their bounded
		// retry/backoff stall, and the perturbed completion time carries into
		// lastFinish — a sick link backs up the whole group channel.
		step := r.steps[0]
		for _, s := range r.steps[1:] {
			if s > step {
				step = s
			}
		}
		if bf, ea := f.linkPerturb(g.ranks, step); bf != 1 || ea != 0 {
			r.newClock = r.commBase + (r.newClock-r.commBase)*bf + ea
		}
		if d := f.collectiveDelay(g.ranks, step); d != 0 {
			r.newClock += d
		}
	}
	g.lastFinish = r.newClock
}

// combineInto sums every member's slot into dst using the association of a
// binomial reduction tree rooted at the round's root (virtual position 0),
// exactly as the per-edge tree this engine replaced: partial sums pair up
// like a binary counter, every element accumulates with individually
// rounded adds, and the result is bit-identical regardless of which member
// finishes the round. dst may alias the root's slot (in-place reduce): each
// element is written only after being read.
func (g *Group) combineInto(r *round, dst *tensor.Matrix) {
	n := len(g.ranks)
	root := r.root
	if root < 0 {
		root = 0
	}
	ref := r.slots[root]
	for i, s := range r.slots {
		if s == nil {
			panic(fmt.Sprintf("dist: rank %d passed nil to %s", g.ranks[i], r.kind))
		}
		if !s.SameShape(ref) || s.Phantom() != ref.Phantom() {
			panic(fmt.Sprintf("dist: %s on group %v: rank %d contributed %dx%d (phantom=%v), root holds %dx%d (phantom=%v)",
				r.kind, g.ranks, g.ranks[i], s.Rows, s.Cols, s.Phantom(), ref.Rows, ref.Cols, ref.Phantom()))
		}
	}
	if n == 1 {
		tensor.CopyInto(dst, ref)
		return
	}
	if ref.Phantom() {
		return
	}
	if n == 2 {
		tensor.AddTo(dst, ref, r.slots[(root+1)%2])
		return
	}
	vdata := g.vdata[:0]
	for v := 0; v < n; v++ {
		vdata = append(vdata, r.slots[(v+root)%n].Data)
	}
	g.vdata = vdata
	treeSumInto(dst.Data, vdata)
	// Drop the data references now that the sum is done: an idle group must
	// not pin its last reduction's matrices (mirrors retire's slot clearing).
	for i := range g.vdata {
		g.vdata[i] = nil
	}
	g.vdata = g.vdata[:0]
}

// treeSumInto writes dd[e] = Σ_v vdata[v][e] in the association of a
// binomial reduction tree over the virtual order vdata: partial sums pair up
// like a binary counter, every element accumulates with individually rounded
// adds. Because the association is per-element, summing a pre-sliced row
// window is bit-identical to summing the whole matrix and slicing the range
// after — the property that makes reduce-scatter ≡ reduce + scatter down to
// the bit. Callers pass windows of equal length len(dd).
func treeSumInto(dd []float64, vdata [][]float64) {
	n := len(vdata)
	var stack [16]float64 // level l holds a partial of 2^l members; 16 levels cover any practical group
	for e := range dd {
		cnt := 0
		for v := 0; v < n; v++ {
			x := vdata[v][e]
			lvl := 0
			for c := cnt; c&1 == 1; c >>= 1 {
				x = stack[lvl] + x
				lvl++
			}
			stack[lvl] = x
			cnt++
		}
		lvl := 0
		for cnt&(1<<lvl) == 0 {
			lvl++
		}
		t := stack[lvl]
		for lvl++; 1<<lvl <= cnt; lvl++ {
			if cnt&(1<<lvl) != 0 {
				t = stack[lvl] + t
			}
		}
		dd[e] = t
	}
}

// scatterCombineInto computes the reduce-scatter outcome: member i's dst
// receives row block i of the binomial-tree sum (rooted at group index 0,
// exactly ReduceInto's association with the first member as root) of the
// equal full-size payloads. No full-size intermediate exists — each block is
// tree-summed straight into its owner's destination, which is bit-identical
// to reducing the whole matrix and scattering because the tree association
// is per-element.
func (g *Group) scatterCombineInto(r *round) {
	n := len(g.ranks)
	ref := r.slots[0]
	br := ref.Rows / n
	for i, s := range r.slots {
		if s == nil {
			panic(fmt.Sprintf("dist: rank %d passed nil to %s", g.ranks[i], r.kind))
		}
		if !s.SameShape(ref) || s.Phantom() != ref.Phantom() {
			panic(fmt.Sprintf("dist: %s on group %v: rank %d contributed %dx%d (phantom=%v), member 0 holds %dx%d (phantom=%v)",
				r.kind, g.ranks, g.ranks[i], s.Rows, s.Cols, s.Phantom(), ref.Rows, ref.Cols, ref.Phantom()))
		}
		d := r.dsts[i]
		if d.Rows != br || d.Cols != ref.Cols || d.Phantom() != ref.Phantom() {
			panic(fmt.Sprintf("dist: %s on group %v: rank %d dst %dx%d (phantom=%v) wants %dx%d (phantom=%v)",
				r.kind, g.ranks, g.ranks[i], d.Rows, d.Cols, d.Phantom(), br, ref.Cols, ref.Phantom()))
		}
	}
	if ref.Phantom() {
		return
	}
	if n == 1 {
		tensor.CopyInto(r.dsts[0], ref)
		return
	}
	vdata := g.vdata[:0]
	for v := 0; v < n; v++ {
		vdata = append(vdata, nil)
	}
	g.vdata = vdata
	blockLen := br * ref.Cols
	for i := 0; i < n; i++ {
		off := i * blockLen
		for v := 0; v < n; v++ {
			vdata[v] = r.slots[v].Data[off : off+blockLen]
		}
		treeSumInto(r.dsts[i].Data, vdata)
	}
	for i := range g.vdata {
		g.vdata[i] = nil
	}
	g.vdata = g.vdata[:0]
}

// gatherInto copies every member's slot into every member's destination in
// canonical order. The orientation follows the destination shape: a
// [n·rows, cols] destination stacks the blocks vertically, a [rows, n·cols]
// destination side by side (each member's dst was checked against its own
// block at issue time; the blocks must agree with each other).
func (g *Group) gatherInto(r *round) {
	n := len(g.ranks)
	block := r.slots[0]
	for i, s := range r.slots {
		if !s.SameShape(block) || s.Phantom() != block.Phantom() {
			panic(fmt.Sprintf("dist: %s on group %v: rank %d contributed %dx%d (phantom=%v), member 0 holds %dx%d (phantom=%v)",
				r.kind, g.ranks, g.ranks[i], s.Rows, s.Cols, s.Phantom(), block.Rows, block.Cols, block.Phantom()))
		}
	}
	for _, d := range r.dsts {
		byRows := d.Rows == n*block.Rows && d.Cols == block.Cols
		for v, s := range r.slots {
			if byRows {
				d.SetSubMatrix(v*block.Rows, 0, s)
			} else {
				d.SetSubMatrix(0, v*block.Cols, s)
			}
		}
	}
}

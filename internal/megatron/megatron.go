// Package megatron implements the 1-D tensor parallelism of Megatron-LM
// (Shoeybi et al., §2.5 and Figure 2 of the paper), the paper's first
// baseline, and its sequence-parallel style (Korthikanti et al.,
// "Reducing Activation Recomputation in Large Transformer Models"). Both
// split every parameter matrix along one dimension across the p processors
// of the group — column-parallel QKV and fc1, row-parallel projection and
// fc2 — so their weights, checkpoint rectangles, attention kernel and
// planner coster are one implementation. The style, chosen by the
// registered family name, decides only the activation choreography:
//
//   - Megatron-LM ("megatron") replicates activations on every processor,
//     which is exactly the memory cost Eq. 9 charges it with. The input
//     bracket of a column/row pair is the identity and the output bracket
//     an all-reduce: one per module, two per layer per direction.
//   - Sequence parallelism ("seqpar", registered by internal/seqpar) shards
//     activations along rows. The input bracket all-gathers full rows — a
//     transient buffer, re-gathered in the backward pass — and the output
//     bracket reduce-scatters the partial product back to the local rows.
//     One all-gather plus one reduce-scatter moves the bytes of one
//     all-reduce. Its backward pass overlaps the input-gradient
//     reduce-scatter with the weight-gradient GEMMs, releases intermediates
//     the moment their last reader is done, and recomputes the fc1 GELU
//     output from the saved pre-activation instead of retaining it — so a
//     rank holds 1/p of Megatron's activations.
package megatron

import (
	"fmt"

	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Proc is one processor's view of a 1-D tensor-parallel group.
type Proc struct {
	W *dist.Worker
	// P is the tensor-parallel size.
	P int
	// Rank is the index within the group, equal to the position of the
	// worker in the group's rank list.
	Rank int
	// TP is the tensor-parallel communicator.
	TP *dist.Group

	// seq selects the sequence-parallel style: row-sharded activations,
	// all-gather/reduce-scatter brackets and eager release.
	seq bool
}

// newProc attaches the calling worker to the group spanning cluster ranks
// [l.Base, l.Base+l.Ranks), in the style l.Family names.
func newProc(w *dist.Worker, l parallel.Layout) *Proc {
	ranks := make([]int, l.Ranks)
	for i := range ranks {
		ranks[i] = l.Base + i
	}
	g := w.Cluster().Group(ranks...)
	idx := g.Index(w.Rank())
	if idx < 0 {
		panic(fmt.Sprintf("%s: rank %d outside tensor-parallel group [%d,%d)", l.Family, w.Rank(), l.Base, l.Base+l.Ranks))
	}
	return &Proc{W: w, P: l.Ranks, Rank: idx, TP: g, seq: l.Family == "seqpar"}
}

// Gather all-gathers a row-sharded activation into a pooled full-row
// buffer: member blocks concatenate in group order, which is the global
// row order the sequence-parallel Distribute slices by. The caller owns
// the result.
func (p *Proc) Gather(x *tensor.Matrix) *tensor.Matrix {
	full := p.W.Workspace().GetUninitMatch(p.P*x.Rows, x.Cols, x.Phantom())
	return p.TP.AllGatherInto(p.W, x, full)
}

// reduce is the output bracket of a row-parallel product: Megatron
// all-reduces the partial sums in place; sequence parallelism
// reduce-scatters them into a pooled row shard and releases the partials.
func (p *Proc) reduce(y *tensor.Matrix) *tensor.Matrix {
	if !p.seq {
		return p.TP.AllReduceInto(p.W, y, y)
	}
	ws := p.W.Workspace()
	shard := ws.GetUninitMatch(y.Rows/p.P, y.Cols, y.Phantom())
	p.TP.ReduceScatterInto(p.W, y, shard)
	ws.Put(y)
	return shard
}

// release is the activation-memory policy: sequence parallelism returns
// intermediates to the workspace as soon as their last reader is done;
// Megatron lets them ride to the step boundary.
func (p *Proc) release(ms ...*tensor.Matrix) {
	if p.seq {
		p.W.Workspace().Put(ms...)
	}
}

// ColLinear is a column-parallel linear layer: W is split [In, Out/p] and
// the input multiplies the local shard with no communication beyond the
// input bracket (Figure 2, left path). The backward pass sums the input
// gradient across the group: an all-reduce, or in the sequence-parallel
// style a nonblocking reduce-scatter hidden behind the weight gradients.
type ColLinear struct {
	In, Out int
	Act     nn.Activation
	W       *nn.Param // [In, Out/p]
	B       *nn.Param // [1, Out/p]

	x   *tensor.Matrix
	pre *tensor.Matrix
}

// NewColLinear draws the full Xavier weight from rng (same stream as
// nn.NewLinear) and keeps the local column block.
func NewColLinear(p *Proc, in, out int, act nn.Activation, bias bool, rng *tensor.RNG) *ColLinear {
	full := tensor.XavierMatrix(in, out, rng)
	return newColFromGlobal(p, full, act, bias)
}

func newColFromGlobal(p *Proc, full *tensor.Matrix, act nn.Activation, bias bool) *ColLinear {
	in, out := full.Rows, full.Cols
	if out%p.P != 0 {
		panic(fmt.Sprintf("megatron: output %d not divisible by p=%d", out, p.P))
	}
	bc := out / p.P
	l := &ColLinear{In: in, Out: out, Act: act}
	l.W = nn.NewParam("megatron.col.w", full.SubMatrix(0, p.Rank*bc, in, bc))
	if bias {
		l.B = nn.NewParam("megatron.col.b", zerosMaybePhantom(1, bc, full.Phantom()))
	}
	return l
}

// NewColLinearPhantom builds the shape-only variant.
func NewColLinearPhantom(p *Proc, in, out int, act nn.Activation, bias bool) *ColLinear {
	return newColFromGlobal(p, tensor.NewPhantom(in, out), act, bias)
}

// Params returns the local shards.
func (l *ColLinear) Params() []*nn.Param { return params(l.W, l.B) }

// Forward multiplies the input by the local column shard, with the bias
// add and optional GELU fused into the GEMM write-back. The sequence-
// parallel style first gathers the row shard to full rows and releases
// them right after the GEMM. The pre-activation (and activation) are
// workspace buffers.
func (l *ColLinear) Forward(p *Proc, x *tensor.Matrix) *tensor.Matrix {
	l.x = x
	in := x
	if p.seq {
		in = p.Gather(x)
	}
	var bias *tensor.Matrix
	if l.B != nil {
		bias = l.B.Value
	}
	var out *tensor.Matrix
	out, l.pre = compute.LinearForward(p.W, in, l.W.Value, bias, l.Act == nn.ActGELU)
	p.release(in)
	return out
}

// Backward accumulates shard gradients and sums the input gradient across
// the group. Megatron all-reduces the replicated gradient after the weight
// gradients. The sequence-parallel style issues the reduce-scatter first
// and hides it behind the weight gradients over the re-gathered input; it
// also writes the GELU gradient over dy in place and releases the saved
// pre-activation. The returned buffer is owned by the caller.
func (l *ColLinear) Backward(p *Proc, dy *tensor.Matrix) *tensor.Matrix {
	ws := p.W.Workspace()
	ph := dy.Phantom() || l.W.Value.Phantom()
	var dyScratch *tensor.Matrix
	if l.Act == nn.ActGELU {
		g := dy
		if !p.seq {
			g = ws.GetUninitMatch(dy.Rows, dy.Cols, dy.Phantom() || l.pre.Phantom())
			dyScratch = g
		}
		compute.GELUGradHadamardTo(p.W, g, l.pre, dy)
		p.release(l.pre)
		dy = g
	}
	if !p.seq {
		weightGrads(p, l.W, l.B, l.x, dy)
	}
	dx := ws.GetUninitMatch(dy.Rows, l.In, ph)
	compute.MatMulNTInto(p.W, dx, dy, l.W.Value)
	if !p.seq {
		if dyScratch != nil {
			ws.Put(dyScratch)
		}
		return p.TP.AllReduceInto(p.W, dx, dx)
	}
	shard := ws.GetUninitMatch(dx.Rows/p.P, l.In, ph)
	h := p.TP.IReduceScatterInto(p.W, dx, shard)
	x := p.Gather(l.x)
	weightGrads(p, l.W, l.B, x, dy)
	ws.Put(x)
	h.Wait()
	ws.Put(dx)
	return shard
}

// RowLinear is a row-parallel linear layer: W is split [In/p, Out] and the
// partial products go through the output bracket (Figure 2, right path).
// The backward pass needs no communication beyond gathering the output
// gradient in the sequence-parallel style.
type RowLinear struct {
	In, Out int
	W       *nn.Param // [In/p, Out]
	B       *nn.Param // [1, Out], replicated (identical update on all ranks)

	// gelu, when set, is the GELU column linear whose output feeds this
	// one. The sequence-parallel style releases that output right after
	// the forward GEMM and recomputes it from gelu's pre-activation in
	// the backward pass.
	gelu *ColLinear
	x    *tensor.Matrix
}

// NewRowLinear draws the full Xavier weight from rng and keeps the local row
// block.
func NewRowLinear(p *Proc, in, out int, bias bool, rng *tensor.RNG) *RowLinear {
	full := tensor.XavierMatrix(in, out, rng)
	return newRowFromGlobal(p, full, bias)
}

func newRowFromGlobal(p *Proc, full *tensor.Matrix, bias bool) *RowLinear {
	in, out := full.Rows, full.Cols
	if in%p.P != 0 {
		panic(fmt.Sprintf("megatron: input %d not divisible by p=%d", in, p.P))
	}
	br := in / p.P
	l := &RowLinear{In: in, Out: out}
	l.W = nn.NewParam("megatron.row.w", full.SubMatrix(p.Rank*br, 0, br, out))
	if bias {
		l.B = nn.NewParam("megatron.row.b", zerosMaybePhantom(1, out, full.Phantom()))
	}
	return l
}

// NewRowLinearPhantom builds the shape-only variant.
func NewRowLinearPhantom(p *Proc, in, out int, bias bool) *RowLinear {
	return newRowFromGlobal(p, tensor.NewPhantom(in, out), bias)
}

// Params returns the local shards.
func (l *RowLinear) Params() []*nn.Param { return params(l.W, l.B) }

// Forward multiplies the sharded input by the local row shard, sums the
// partial outputs through the output bracket, and adds the bias to the
// reduced sum. The output is a workspace buffer.
func (l *RowLinear) Forward(p *Proc, x *tensor.Matrix) *tensor.Matrix {
	l.x = x
	y := p.W.Workspace().GetUninitMatch(x.Rows, l.Out, x.Phantom() || l.W.Value.Phantom())
	y.Zero()
	compute.MatMulInto(p.W, y, x, l.W.Value)
	if l.gelu != nil {
		p.release(x)
	}
	y = p.reduce(y)
	if l.B != nil {
		compute.AddRowVectorInPlace(p.W, y, l.B.Value)
	}
	return y
}

// Backward accumulates shard gradients and returns the sharded input
// gradient out of pooled buffers. The sequence-parallel style gathers the
// output gradient to full rows first, and releases the saved input (or
// its recomputed GELU output) and the gathered rows once read — so in
// that style the layer owns the input it was given.
func (l *RowLinear) Backward(p *Proc, dy *tensor.Matrix) *tensor.Matrix {
	ws := p.W.Workspace()
	ph := dy.Phantom() || l.W.Value.Phantom()
	x := l.x
	if p.seq {
		dy = p.Gather(dy)
		if l.gelu != nil {
			pre := l.gelu.pre
			x = ws.GetUninitMatch(pre.Rows, pre.Cols, ph)
			compute.GELUTo(p.W, x, pre)
		}
	}
	weightGrads(p, l.W, l.B, x, dy)
	p.release(x)
	dx := ws.GetUninitMatch(dy.Rows, l.W.Value.Rows, ph)
	compute.MatMulNTInto(p.W, dx, dy, l.W.Value)
	p.release(dy)
	return dx
}

// weightGrads accumulates dW = xᵀ·dy and db = colsum(dy) (when b is set)
// out of pooled buffers.
func weightGrads(p *Proc, w, b *nn.Param, x, dy *tensor.Matrix) {
	ws := p.W.Workspace()
	ph := dy.Phantom() || w.Value.Phantom()
	dw := ws.GetUninitMatch(w.Value.Rows, w.Value.Cols, ph)
	dw.Zero()
	compute.MatMulTNInto(p.W, dw, x, dy)
	w.AccumGrad(dw)
	ws.Put(dw)
	if b != nil {
		db := ws.GetUninitMatch(1, b.Value.Cols, ph)
		compute.ColSumsInto(p.W, db, dy)
		b.AccumGrad(db)
		ws.Put(db)
	}
}

// params lists a weight and its optional bias.
func params(w, b *nn.Param) []*nn.Param {
	if b == nil {
		return []*nn.Param{w}
	}
	return []*nn.Param{w, b}
}

func zerosMaybePhantom(rows, cols int, phantom bool) *tensor.Matrix {
	if phantom {
		return tensor.NewPhantom(rows, cols)
	}
	return tensor.New(rows, cols)
}

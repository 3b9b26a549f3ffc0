package seqpar

import (
	"fmt"

	"repro/internal/compute"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Attention is the sequence-parallel self-attention module. Weights shard
// exactly like Megatron-LM — a fused, head-aligned column-parallel QKV
// projection and a row-parallel output projection — but the activation
// choreography differs: the sharded input is all-gathered to full rows for
// the QKV GEMM (and immediately discarded — the backward pass re-gathers
// it), attention runs locally over this rank's heads on full rows, and the
// output projection's partial product reduce-scatters straight back to the
// local row shard. The backward pass overlaps the input-gradient
// reduce-scatter with the weight-gradient GEMMs and recycles the saved
// Q/K/V/probability buffers the moment their gradients are done.
type Attention struct {
	H, Heads, SeqLen int

	QKV   *nn.Param // [h, 3h/p], head-aligned permutation [Wq_r | Wk_r | Wv_r]
	QKVb  *nn.Param // [1, 3h/p]
	Proj  *nn.Param // [h/p, h], row shard of Wo
	Projb *nn.Param // [1, h], replicated (identical full-row gradient on all ranks)

	x       *tensor.Matrix
	q, k, v *tensor.Matrix
	out     *tensor.Matrix
	probs   []*tensor.Matrix
}

// NewAttention draws Wq, Wk, Wv, Wo from rng in the serial order and keeps
// the Megatron-shaped shards: rank r's fused QKV block is [Wq_r | Wk_r |
// Wv_r], its projection shard is Wo's row block r.
func NewAttention(p *Proc, h, heads, seqLen int, rng *tensor.RNG) *Attention {
	validate(p, h, heads)
	wq := tensor.XavierMatrix(h, h, rng)
	wk := tensor.XavierMatrix(h, h, rng)
	wv := tensor.XavierMatrix(h, h, rng)
	wo := tensor.XavierMatrix(h, h, rng)

	bc := h / p.P
	fused := compute.FuseQKV(wq, wk, wv, p.P).SubMatrix(0, p.Rank*3*bc, h, 3*bc)

	a := &Attention{H: h, Heads: heads, SeqLen: seqLen}
	a.QKV = nn.NewParam("seqpar.attn.qkv.w", fused)
	a.QKVb = nn.NewParam("seqpar.attn.qkv.b", tensor.New(1, 3*bc))
	a.Proj = nn.NewParam("seqpar.attn.proj.w", wo.SubMatrix(p.Rank*bc, 0, bc, h))
	a.Projb = nn.NewParam("seqpar.attn.proj.b", tensor.New(1, h))
	return a
}

// NewAttentionPhantom builds the shape-only variant.
func NewAttentionPhantom(p *Proc, h, heads, seqLen int) *Attention {
	validate(p, h, heads)
	bc := h / p.P
	a := &Attention{H: h, Heads: heads, SeqLen: seqLen}
	a.QKV = nn.NewParam("seqpar.attn.qkv.w", tensor.NewPhantom(h, 3*bc))
	a.QKVb = nn.NewParam("seqpar.attn.qkv.b", tensor.NewPhantom(1, 3*bc))
	a.Proj = nn.NewParam("seqpar.attn.proj.w", tensor.NewPhantom(bc, h))
	a.Projb = nn.NewParam("seqpar.attn.proj.b", tensor.NewPhantom(1, h))
	return a
}

func validate(p *Proc, h, heads int) {
	if h%heads != 0 {
		panic(fmt.Sprintf("seqpar: hidden %d not divisible by heads %d", h, heads))
	}
	if heads%p.P != 0 {
		panic(fmt.Sprintf("seqpar: heads %d not divisible by p=%d", heads, p.P))
	}
}

// Params returns the local shards.
func (a *Attention) Params() []*nn.Param {
	return []*nn.Param{a.QKV, a.QKVb, a.Proj, a.Projb}
}

// Forward maps the local row shard x of shape [R/p, h] to the sharded
// module output: gather → fused QKV → local attention → partial projection
// → reduce-scatter → bias. The gathered rows and the fused QKV buffer are
// transient; only Q/K/V, the attention output and the probabilities ride
// to the backward pass.
func (a *Attention) Forward(p *Proc, x *tensor.Matrix) *tensor.Matrix {
	a.x = x
	ws := p.W.Workspace()
	hp := a.H / p.P
	ph := x.Phantom() || a.QKV.Value.Phantom()

	xFull := p.gather(x)
	qkv := ws.GetUninitMatch(xFull.Rows, 3*hp, ph)
	qkv.Zero()
	compute.MatMulBiasInto(p.W, qkv, xFull, a.QKV.Value, a.QKVb.Value)
	ws.Put(xFull)

	a.q, a.k, a.v = compute.SplitQKV(p.W, qkv)
	ws.Put(qkv)
	a.out, a.probs = compute.AttendForward(p.W, a.q, a.k, a.v, a.Heads/p.P, a.SeqLen, a.probs[:0])

	partial := ws.GetUninitMatch(a.out.Rows, a.H, ph)
	partial.Zero()
	compute.MatMulInto(p.W, partial, a.out, a.Proj.Value)
	y := ws.GetUninitMatch(x.Rows, a.H, ph)
	p.TP.ReduceScatterInto(p.W, partial, y)
	ws.Put(partial)
	compute.AddRowVectorInPlace(p.W, y, a.Projb.Value)
	return y
}

// Backward propagates through the module. The output-gradient gather feeds
// the projection gradients, the input re-gather feeds the QKV gradients,
// and the input-gradient reduce-scatter flies behind the latter; every
// saved forward activation is recycled the moment its last gradient GEMM
// has read it.
func (a *Attention) Backward(p *Proc, dy *tensor.Matrix) *tensor.Matrix {
	ws := p.W.Workspace()
	hp := a.H / p.P
	ph := dy.Phantom() || a.QKV.Value.Phantom()

	dyFull := p.gather(dy)
	db := ws.GetUninitMatch(1, a.H, ph)
	compute.ColSumsInto(p.W, db, dyFull) // full-row sum: identical on all ranks
	a.Projb.AccumGrad(db)
	ws.Put(db)
	dwo := ws.GetUninitMatch(hp, a.H, ph)
	dwo.Zero()
	compute.MatMulTNInto(p.W, dwo, a.out, dyFull)
	a.Proj.AccumGrad(dwo)
	ws.Put(dwo)
	dout := ws.GetUninitMatch(dyFull.Rows, hp, ph)
	compute.MatMulNTInto(p.W, dout, dyFull, a.Proj.Value)
	ws.Put(dyFull)
	ws.Put(a.out)
	a.out = nil

	dqkv := compute.AttendBackward(p.W, dout, a.q, a.k, a.v, a.probs, a.Heads/p.P, a.SeqLen)
	ws.Put(dout)
	ws.Put(a.q, a.k, a.v)
	a.q, a.k, a.v = nil, nil, nil
	for _, probs := range a.probs {
		ws.Put(probs)
	}
	a.probs = a.probs[:0]

	dxFull := ws.GetUninitMatch(dqkv.Rows, a.H, ph)
	compute.MatMulNTInto(p.W, dxFull, dqkv, a.QKV.Value)
	dx := ws.GetUninitMatch(dqkv.Rows/p.P, a.H, ph)
	hnd := p.TP.IReduceScatterInto(p.W, dxFull, dx)

	xFull := p.gather(a.x)
	dwq := ws.GetUninitMatch(a.H, 3*hp, ph)
	dwq.Zero()
	compute.MatMulTNInto(p.W, dwq, xFull, dqkv)
	a.QKV.AccumGrad(dwq)
	ws.Put(dwq, xFull)
	dbq := ws.GetUninitMatch(1, 3*hp, ph)
	compute.ColSumsInto(p.W, dbq, dqkv)
	a.QKVb.AccumGrad(dbq)
	ws.Put(dbq)

	hnd.Wait()
	ws.Put(dqkv, dxFull)
	return dx
}

// MLP is the sequence-parallel feed-forward module: column-parallel fc1
// (h → 4h/p, GELU fused) on gathered full rows, row-parallel fc2 whose
// partial product reduce-scatters back to the local shard. Only the fc1
// pre-activation rides to the backward pass — the GELU output is
// recomputed there with one elementwise pass, halving the module's
// retained activations.
type MLP struct {
	H int

	W1 *nn.Param // [h, 4h/p], column shard
	B1 *nn.Param // [1, 4h/p]
	W2 *nn.Param // [4h/p, h], row shard
	B2 *nn.Param // [1, h], replicated

	x   *tensor.Matrix
	pre *tensor.Matrix
}

// NewMLP draws Fc1, Fc2 from rng in the serial order and keeps the
// Megatron-shaped shards.
func NewMLP(p *Proc, h int, rng *tensor.RNG) *MLP {
	w1 := tensor.XavierMatrix(h, 4*h, rng)
	w2 := tensor.XavierMatrix(4*h, h, rng)
	hp4 := 4 * h / p.P
	l := &MLP{H: h}
	l.W1 = nn.NewParam("seqpar.mlp.fc1.w", w1.SubMatrix(0, p.Rank*hp4, h, hp4))
	l.B1 = nn.NewParam("seqpar.mlp.fc1.b", tensor.New(1, hp4))
	l.W2 = nn.NewParam("seqpar.mlp.fc2.w", w2.SubMatrix(p.Rank*hp4, 0, hp4, h))
	l.B2 = nn.NewParam("seqpar.mlp.fc2.b", tensor.New(1, h))
	return l
}

// NewMLPPhantom builds the shape-only variant.
func NewMLPPhantom(p *Proc, h int) *MLP {
	hp4 := 4 * h / p.P
	l := &MLP{H: h}
	l.W1 = nn.NewParam("seqpar.mlp.fc1.w", tensor.NewPhantom(h, hp4))
	l.B1 = nn.NewParam("seqpar.mlp.fc1.b", tensor.NewPhantom(1, hp4))
	l.W2 = nn.NewParam("seqpar.mlp.fc2.w", tensor.NewPhantom(hp4, h))
	l.B2 = nn.NewParam("seqpar.mlp.fc2.b", tensor.NewPhantom(1, h))
	return l
}

// Params returns the local shards.
func (l *MLP) Params() []*nn.Param {
	return []*nn.Param{l.W1, l.B1, l.W2, l.B2}
}

// Forward maps the local row shard to the sharded module output: gather →
// fused fc1+GELU → partial fc2 → reduce-scatter → bias. The gathered rows
// and the GELU output are transient; only the pre-activation is retained.
func (l *MLP) Forward(p *Proc, x *tensor.Matrix) *tensor.Matrix {
	l.x = x
	ws := p.W.Workspace()
	ph := x.Phantom() || l.W1.Value.Phantom()

	yFull := p.gather(x)
	pre := ws.GetUninitMatch(yFull.Rows, l.W1.Value.Cols, ph)
	pre.Zero()
	l.pre = pre
	act := ws.GetUninitMatch(yFull.Rows, l.W1.Value.Cols, ph)
	compute.MatMulBiasGELUInto(p.W, act, pre, yFull, l.W1.Value, l.B1.Value)
	ws.Put(yFull)

	partial := ws.GetUninitMatch(act.Rows, l.H, ph)
	partial.Zero()
	compute.MatMulInto(p.W, partial, act, l.W2.Value)
	ws.Put(act)
	z := ws.GetUninitMatch(x.Rows, l.H, ph)
	p.TP.ReduceScatterInto(p.W, partial, z)
	ws.Put(partial)
	compute.AddRowVectorInPlace(p.W, z, l.B2.Value)
	return z
}

// Backward recomputes the GELU output from the saved pre-activation (one
// elementwise pass, bitwise identical to the fused forward epilogue),
// accumulates the shard gradients, and overlaps the input-gradient
// reduce-scatter with the fc1 weight-gradient GEMM over the re-gathered
// input.
func (l *MLP) Backward(p *Proc, dz *tensor.Matrix) *tensor.Matrix {
	ws := p.W.Workspace()
	ph := dz.Phantom() || l.W1.Value.Phantom()

	dzFull := p.gather(dz)
	db2 := ws.GetUninitMatch(1, l.H, ph)
	compute.ColSumsInto(p.W, db2, dzFull) // full-row sum: identical on all ranks
	l.B2.AccumGrad(db2)
	ws.Put(db2)
	act := ws.GetUninitMatch(l.pre.Rows, l.pre.Cols, ph)
	compute.GELUTo(p.W, act, l.pre)
	dw2 := ws.GetUninitMatch(l.W2.Value.Rows, l.H, ph)
	dw2.Zero()
	compute.MatMulTNInto(p.W, dw2, act, dzFull)
	l.W2.AccumGrad(dw2)
	ws.Put(dw2, act)
	dact := ws.GetUninitMatch(dzFull.Rows, l.W2.Value.Rows, ph)
	compute.MatMulNTInto(p.W, dact, dzFull, l.W2.Value)
	ws.Put(dzFull)

	compute.GELUGradHadamardTo(p.W, dact, l.pre, dact) // dpre, in place
	ws.Put(l.pre)
	l.pre = nil
	db1 := ws.GetUninitMatch(1, l.W1.Value.Cols, ph)
	compute.ColSumsInto(p.W, db1, dact)
	l.B1.AccumGrad(db1)
	ws.Put(db1)

	dxFull := ws.GetUninitMatch(dact.Rows, l.H, ph)
	compute.MatMulNTInto(p.W, dxFull, dact, l.W1.Value)
	dx := ws.GetUninitMatch(dact.Rows/p.P, l.H, ph)
	hnd := p.TP.IReduceScatterInto(p.W, dxFull, dx)

	yFull := p.gather(l.x)
	dw1 := ws.GetUninitMatch(l.H, l.W1.Value.Cols, ph)
	dw1.Zero()
	compute.MatMulTNInto(p.W, dw1, yFull, dact)
	l.W1.AccumGrad(dw1)
	ws.Put(dw1, yFull)

	hnd.Wait()
	ws.Put(dact, dxFull)
	return dx
}

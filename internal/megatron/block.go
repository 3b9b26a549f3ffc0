package megatron

import (
	"fmt"

	"repro/internal/compute"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Attention is the Megatron-parallel self-attention module: a fused,
// head-aligned column-parallel QKV projection (heads split across the p
// processors), purely local per-head attention on full rows, and a
// row-parallel output projection whose output bracket restores the
// family's activation distribution.
type Attention struct {
	H, Heads, SeqLen int

	QKV  *ColLinear // h -> 3h, head-aligned permutation
	Proj *RowLinear // h -> h

	q, k, v *tensor.Matrix
	probs   []*tensor.Matrix
}

// NewAttention draws Wq, Wk, Wv, Wo from rng in the serial order and packs
// the first three into the fused column-permuted QKV weight: rank r holds
// [Wq_r | Wk_r | Wv_r].
func NewAttention(p *Proc, h, heads, seqLen int, rng *tensor.RNG) *Attention {
	validate(p, h, heads)
	wq := tensor.XavierMatrix(h, h, rng)
	wk := tensor.XavierMatrix(h, h, rng)
	wv := tensor.XavierMatrix(h, h, rng)
	wo := tensor.XavierMatrix(h, h, rng)

	fused := compute.FuseQKV(wq, wk, wv, p.P)

	a := &Attention{H: h, Heads: heads, SeqLen: seqLen}
	a.QKV = newColFromGlobal(p, fused, nn.ActNone, true)
	a.Proj = newRowFromGlobal(p, wo, true)
	return a
}

// NewAttentionPhantom builds the shape-only variant.
func NewAttentionPhantom(p *Proc, h, heads, seqLen int) *Attention {
	validate(p, h, heads)
	a := &Attention{H: h, Heads: heads, SeqLen: seqLen}
	a.QKV = NewColLinearPhantom(p, h, 3*h, nn.ActNone, true)
	a.Proj = NewRowLinearPhantom(p, h, h, true)
	return a
}

func validate(p *Proc, h, heads int) {
	if h%heads != 0 {
		panic(fmt.Sprintf("megatron: hidden %d not divisible by heads %d", h, heads))
	}
	if heads%p.P != 0 {
		panic(fmt.Sprintf("megatron: heads %d not divisible by p=%d", heads, p.P))
	}
}

// Params returns the local shards.
func (a *Attention) Params() []*nn.Param {
	return append(a.QKV.Params(), a.Proj.Params()...)
}

// Forward runs attention over the input x of shape [b·s, h] (replicated,
// or this rank's row shard in the sequence-parallel style). The Q/K/V
// slices and the per-head probabilities are retained for the backward pass
// in workspace buffers; the fused QKV buffer is released once split.
func (a *Attention) Forward(p *Proc, x *tensor.Matrix) *tensor.Matrix {
	qkv := a.QKV.Forward(p, x)
	a.q, a.k, a.v = compute.SplitQKV(p.W, qkv)
	p.release(qkv)
	out, probs := compute.AttendForward(p.W, a.q, a.k, a.v, a.Heads/p.P, a.SeqLen, a.probs[:0])
	a.probs = probs
	return a.Proj.Forward(p, out)
}

// Backward propagates through the module, recycling gradient intermediates
// as soon as their last reader returns, and the saved Q/K/V and
// probabilities too in the sequence-parallel style.
func (a *Attention) Backward(p *Proc, dy *tensor.Matrix) *tensor.Matrix {
	ws := p.W.Workspace()
	dout := a.Proj.Backward(p, dy)
	dqkv := compute.AttendBackward(p.W, dout, a.q, a.k, a.v, a.probs, a.Heads/p.P, a.SeqLen)
	ws.Put(dout)
	p.release(a.q, a.k, a.v)
	p.release(a.probs...)
	dx := a.QKV.Backward(p, dqkv)
	ws.Put(dqkv)
	return dx
}

// mlp chains the column-parallel h→4h GELU linear with the row-parallel
// 4h→h linear. Per layer the block composition performs exactly two
// forward and two backward all-reduces of the [b·s, h] activation in the
// Megatron style — the communication volume 2β(p−1)·b·s·h/p per direction
// that §3.1 attributes to Megatron-LM — and, in the sequence-parallel
// style, two all-gathers and two reduce-scatters forward plus four
// all-gathers and two reduce-scatters backward.
type mlp struct {
	fc1 *ColLinear
	fc2 *RowLinear
}

// newMLP draws Fc1, Fc2 from rng in the serial order.
func newMLP(p *Proc, h int, rng *tensor.RNG) *mlp {
	return linkMLP(NewColLinear(p, h, 4*h, nn.ActGELU, true, rng), NewRowLinear(p, 4*h, h, true, rng))
}

// newMLPPhantom builds the shape-only variant.
func newMLPPhantom(p *Proc, h int) *mlp {
	return linkMLP(NewColLinearPhantom(p, h, 4*h, nn.ActGELU, true), NewRowLinearPhantom(p, 4*h, h, true))
}

func linkMLP(fc1 *ColLinear, fc2 *RowLinear) *mlp {
	fc2.gelu = fc1
	return &mlp{fc1: fc1, fc2: fc2}
}

// Params returns the local shards in the serial order.
func (m *mlp) Params() []*nn.Param { return append(m.fc1.Params(), m.fc2.Params()...) }

// Forward applies fc1 then fc2.
func (m *mlp) Forward(p *Proc, x *tensor.Matrix) *tensor.Matrix {
	return m.fc2.Forward(p, m.fc1.Forward(p, x))
}

// Backward propagates through fc2 then fc1, releasing the hidden gradient
// in the sequence-parallel style.
func (m *mlp) Backward(p *Proc, dy *tensor.Matrix) *tensor.Matrix {
	da := m.fc2.Backward(p, dy)
	dx := m.fc1.Backward(p, da)
	p.release(da)
	return dx
}

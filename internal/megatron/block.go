package megatron

import (
	"fmt"

	"repro/internal/compute"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Attention is the Megatron-parallel self-attention module: a fused,
// head-aligned column-parallel QKV projection (heads split across the p
// processors), purely local per-head attention, and a row-parallel output
// projection whose forward all-reduce restores the replicated activation.
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

// Forward runs attention over the replicated input x of shape [b·s, h].
// The Q/K/V slices and the per-head probabilities are retained for the
// backward pass in workspace buffers, released at the step boundary.
func (a *Attention) Forward(p *Proc, x *tensor.Matrix) *tensor.Matrix {
	qkv := a.QKV.Forward(p, x)
	a.q, a.k, a.v = compute.SplitQKV(p.W, qkv)
	out, probs := compute.AttendForward(p.W, a.q, a.k, a.v, a.Heads/p.P, a.SeqLen, a.probs[:0])
	a.probs = probs
	return a.Proj.Forward(p, out)
}

// Backward propagates through the module, recycling gradient intermediates
// as soon as their last reader returns.
func (a *Attention) Backward(p *Proc, dy *tensor.Matrix) *tensor.Matrix {
	ws := p.W.Workspace()
	dout := a.Proj.Backward(p, dy)
	dqkv := compute.AttendBackward(p.W, dout, a.q, a.k, a.v, a.probs, a.Heads/p.P, a.SeqLen)
	ws.Put(dout)
	dx := a.QKV.Backward(p, dqkv)
	ws.Put(dqkv)
	return dx
}

// The Block, MLP and LayerNorm wrappers that used to live here were
// deleted in favor of the shared generic composition: the family's
// NewBlock assembles parallel.Block from this package's Attention and
// column/row-parallel linears plus parallel.ReplicatedLayerNorm (see
// family.go). Per layer the composition still performs exactly two forward
// all-reduces and two backward all-reduces of the [b·s, h] activation —
// the communication volume 2β(p−1)·b·s·h/p per direction that §3.1
// attributes to Megatron-LM.

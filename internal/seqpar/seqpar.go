// Package seqpar registers sequence parallelism (Korthikanti et al.,
// "Reducing Activation Recomputation in Large Transformer Models"; the
// natural fourth member of the paper's family zoo): a 1-D layout [p] that
// shards *activations* along the sequence/row dimension instead of
// replicating them. It is Megatron-LM's weight sharding with different
// activation brackets, so — as optimus is tesseract at d = 1 — the family
// embeds internal/megatron's and its blocks are megatron's layers in the
// sequence-parallel style the family name selects: every parallel linear
// pair all-gathers full rows on the way in and reduce-scatters the partial
// product back to the local rows on the way out, moving the bytes of one
// all-reduce while holding 1/p of Megatron's activations — the
// memory/comm trade the planner exploits under tight memory budgets.
//
// This package adds only what differs at the family level: Distribute,
// Collect, Slice and GatherPooled over row shards, the shard-local patch
// embedding whose replicated-weight gradient all-reduces drain in
// DrainGradients, and the planner's grid rule, per-layer schedule and
// memory formula. Checkpoints re-shard freely between the two families.
package seqpar

import (
	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// gradSync is one in-flight replicated-parameter gradient all-reduce: the
// handle, the parameter it lands on, and the pooled buffer carrying the sum.
type gradSync struct {
	h     dist.Handle
	param *nn.Param
	buf   *tensor.Matrix
}

// shardLinear is the family's fully connected layer (the ViT patch
// embedding): a parallel.ReplicatedLinear whose input rows are sharded, so
// the GEMM is local with no communication at all, and whose gradients are
// therefore partial sums. The backward pass queues a nonblocking
// all-reduce per gradient so the replicated parameters see the sum over
// every rank's row shard, bitwise identical on all ranks. The handles
// drain in DrainGradients, hiding the sync behind the rest of the backward
// pass.
type shardLinear struct {
	*parallel.ReplicatedLinear

	f   *Family
	x   *tensor.Matrix
	pre *tensor.Matrix
}

// Forward runs the local GEMM on the rank's row shard, bias and GELU fused
// into the write-back.
func (l *shardLinear) Forward(x *tensor.Matrix) *tensor.Matrix {
	l.x = x
	var bias *tensor.Matrix
	if l.B != nil {
		bias = l.B.Value
	}
	var out *tensor.Matrix
	out, l.pre = compute.LinearForward(l.f.W, x, l.W.Value, bias, l.Act == nn.ActGELU)
	return out
}

// Backward computes the shard-local gradient partials, queues their
// all-reduce for DrainGradients, and returns the sharded input gradient.
func (l *shardLinear) Backward(dy *tensor.Matrix) *tensor.Matrix {
	f := l.f
	ws := f.W.Workspace()
	ph := dy.Phantom() || l.W.Value.Phantom()
	var dyScratch *tensor.Matrix
	if l.Act == nn.ActGELU {
		g := ws.GetUninitMatch(dy.Rows, dy.Cols, dy.Phantom() || l.pre.Phantom())
		compute.GELUGradHadamardTo(f.W, g, l.pre, dy)
		dy, dyScratch = g, g
	}
	dw := ws.GetUninitMatch(l.In, l.Out, ph)
	dw.Zero()
	compute.MatMulTNInto(f.W, dw, l.x, dy)
	f.pending = append(f.pending, gradSync{h: f.TP.IAllReduceInto(f.W, dw, dw), param: l.W, buf: dw})
	if l.B != nil {
		db := ws.GetUninitMatch(1, l.Out, ph)
		compute.ColSumsInto(f.W, db, dy)
		f.pending = append(f.pending, gradSync{h: f.TP.IAllReduceInto(f.W, db, db), param: l.B, buf: db})
	}
	dx := ws.GetUninitMatch(dy.Rows, l.In, ph)
	compute.MatMulNTInto(f.W, dx, dy, l.W.Value)
	if dyScratch != nil {
		ws.Put(dyScratch)
	}
	return dx
}

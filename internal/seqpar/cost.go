package seqpar

import (
	"repro/internal/compute"
	"repro/internal/megatron"
	"repro/internal/plan"
)

// PlanAlgo describes sequence parallelism to the auto-parallelism planner:
// [p] layouts for every p dividing both the head count and the batch
// (whole sequences per rank), an analytic cost mirroring the schedule the
// layers run (an all-gather into and a reduce-scatter out of every
// parallel linear, plus the backward re-gathers that pay for discarding
// the gathered rows), and a per-rank memory holding 1/p of the activations
// Megatron replicates. The family is never the fastest — its gather/
// scatter brackets move the same bytes as Megatron's all-reduces forward
// and half again backward — so the planner picks it exactly when memory is
// the binding constraint, which is the trade the family exists for.
func PlanAlgo() plan.Algo {
	return plan.Algo{
		Family: "seqpar",
		Grids:  seqparGrids,
		Cost:   megatron.Cost(forwardLayer, backwardLayer),
		Memory: seqparMemory,
	}
}

// seqparGrids enumerates [p] for every p ≤ budget dividing the head count
// (the attention head split) and the batch (whole sequences per rank, the
// row-shard alignment vit.TrainLayout checks).
func seqparGrids(w plan.Workload, budget int) []plan.Grid {
	var out []plan.Grid
	for p := 1; p <= budget && p <= w.Heads; p++ {
		if w.Heads%p == 0 && w.Batch%p == 0 {
			out = append(out, plan.Grid{Ranks: p})
		}
	}
	return out
}

// forwardLayer prices one Block.Forward: each parallel linear pair gathers
// the R/p-row shard to full rows, runs the same GEMM shapes as Megatron,
// and reduce-scatters the partial back — one all-gather plus one
// reduce-scatter per module, the byte volume of one all-reduce. Layer
// norms, residuals and biases run on the local shard.
func forwardLayer(c *megatron.Coster, R, h, hp, s, dh, hl float64) {
	Rl := c.Shard(R)
	c.AllGather(Rl * h)
	c.GEMM(R, 3*hp, h) // QKV
	c.Flops(R * 3 * hp * compute.FlopsPerAdd)
	c.Flops(R / s * hl * (4*s*s*dh + compute.FlopsPerSoftmax*s*s))
	c.GEMM(R, h, hp) // projection partial
	c.ReduceScatter(R * h)
	c.Flops(Rl * h * compute.FlopsPerAdd) // projection bias
	c.Flops(Rl * h * compute.FlopsPerAdd) // residual
	c.Flops(Rl * h * (compute.FlopsPerNorm + 2))
	c.AllGather(Rl * h)
	c.GEMM(R, 4*hp, h) // fc1
	c.Flops(R * 4 * hp * (compute.FlopsPerAdd + compute.FlopsPerGELU))
	c.GEMM(R, h, 4*hp) // fc2 partial
	c.ReduceScatter(R * h)
	c.Flops(Rl * h * compute.FlopsPerAdd)
	c.Flops(Rl * h * compute.FlopsPerAdd)
	c.Flops(Rl * h * (compute.FlopsPerNorm + 2))
}

// backwardLayer prices one Block.Backward: each module gathers the sharded
// output gradient, re-gathers its discarded forward input for the weight
// gradients, and reduce-scatters the input gradient — three half-rings
// where Megatron pays two, the price of holding 1/p of the activations.
// The fc1 GELU output is recomputed from the saved pre-activation.
func backwardLayer(c *megatron.Coster, R, h, hp, s, dh, hl float64) {
	Rl := c.Shard(R)
	c.Flops(Rl * h * (compute.FlopsPerNorm + 2)) // ln2
	// MLP: dz gather, GELU recompute, shard gradients, dx reduce-scatter,
	// input re-gather for dW1.
	c.AllGather(Rl * h)
	c.Flops(R * h * compute.FlopsPerAdd)       // fc2 bias sums
	c.Flops(R * 4 * hp * compute.FlopsPerGELU) // GELU recompute
	c.GEMM(4*hp, h, R)
	c.GEMM(R, 4*hp, h)
	c.Flops(R * 4 * hp * (compute.FlopsPerGELU + compute.FlopsPerAdd))
	c.Flops(R * 4 * hp * compute.FlopsPerAdd) // fc1 bias sums
	c.GEMM(R, h, 4*hp)
	c.ReduceScatter(R * h)
	c.AllGather(Rl * h)
	c.GEMM(h, 4*hp, R)
	c.Flops(Rl * h * compute.FlopsPerAdd) // residual
	c.Flops(Rl * h * (compute.FlopsPerNorm + 2))
	// Attention: dy gather, projection gradients, attention backward, dx
	// reduce-scatter, input re-gather for dQKV.
	c.AllGather(Rl * h)
	c.Flops(R * h * compute.FlopsPerAdd) // projection bias sums
	c.GEMM(hp, h, R)
	c.GEMM(R, hp, h)
	c.Flops(R / s * hl * (8*s*s*dh + compute.FlopsPerSoftmax*s*s))
	c.GEMM(R, h, 3*hp)
	c.ReduceScatter(R * h)
	c.AllGather(Rl * h)
	c.GEMM(h, 3*hp, R)
	c.Flops(R * 3 * hp * compute.FlopsPerAdd)
	c.Flops(Rl * h * compute.FlopsPerAdd)
}

// seqparMemory estimates the bytes one rank holds across a training step:
// the Megatron-shaped weight shards with gradients, and an activation set
// that is 1/p of Megatron's replicated footprint — per layer the retained
// shard-width buffers (Q/K/V, the attention output, the fc1
// pre-activation, four row-shard activations) plus one transient full-row
// gathered buffer, plus this rank's share of the softmax probabilities.
func seqparMemory(w plan.Workload, g plan.Grid) int64 {
	p := float64(g.Ranks)
	R := float64(w.Tokens())
	h := float64(w.Hidden)
	hp := h / p
	s := float64(w.SeqLen)
	hl := float64(w.Heads) / p
	L := float64(w.Layers)
	weights := 12*h*hp + 7*hp + 2*h // shards + shard biases + replicated biases
	probs := float64(w.Batch) * hl * s * s
	acts := R*(12*hp+h) + probs
	io := 2*R*h/p + 2*R*h
	return plan.Bytes(L*(2*weights+acts) + io)
}

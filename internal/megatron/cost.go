package megatron

import (
	"repro/internal/compute"
	"repro/internal/dist"
	"repro/internal/plan"
)

// PlanAlgo describes Megatron-LM to the auto-parallelism planner: [p]
// layouts for every p that divides the head count, an analytic cost
// mirroring the schedule Block.Forward/Backward run (two activation
// all-reduces per layer per direction, everything else local on the fully
// replicated activation), and the Eq. 9-style per-rank memory — the
// replicated activations that make the family cheap to communicate and
// expensive to hold.
func PlanAlgo() plan.Algo {
	return plan.Algo{
		Family: "megatron",
		Grids:  megatronGrids,
		Cost:   Cost(forwardLayer, backwardLayer),
		Memory: megatronMemory,
	}
}

// megatronGrids enumerates [p] for every p ≤ budget dividing the head
// count (heads % p == 0 implies every weight split the layers perform).
func megatronGrids(w plan.Workload, budget int) []plan.Grid {
	var out []plan.Grid
	for p := 1; p <= budget && p <= w.Heads; p++ {
		if w.Heads%p == 0 {
			out = append(out, plan.Grid{Ranks: p})
		}
	}
	return out
}

// Coster accumulates one rank's compute and comm seconds across one layer
// of a 1-D group; the group spans ranks [0, p), so it pays inter-node
// rates as soon as p exceeds the node size. Both layer styles price their
// schedules on it.
type Coster struct {
	m     dist.CostModel
	p     int
	inter bool
	comp  float64
	comm  float64
}

// Flops charges f flops of elementwise work.
func (c *Coster) Flops(f float64) { c.comp += f / c.m.FLOPS }

// GEMM charges an m×k by k×n product.
func (c *Coster) GEMM(m, n, k float64) { c.comp += c.m.GEMMSeconds(m, n, k) }

// AllReduce charges an all-reduce of elems elements.
func (c *Coster) AllReduce(elems float64) {
	c.comm += c.m.AllReduceSeconds(c.p, plan.Bytes(elems), c.inter)
}

// AllGather charges gathering perRank elements from every member into full
// rows.
func (c *Coster) AllGather(perRank float64) {
	c.comm += c.m.AllGatherSeconds(c.p, plan.Bytes(perRank), c.inter)
}

// ReduceScatter charges summing full elements of partials down to the
// local row shard.
func (c *Coster) ReduceScatter(full float64) {
	c.comm += c.m.ReduceScatterSeconds(c.p, plan.Bytes(full), c.inter)
}

// Shard returns one member's share of rows split across the group.
func (c *Coster) Shard(rows float64) float64 { return rows / float64(c.p) }

// Schedule prices one Block.Forward or Block.Backward on a Coster: R
// activation rows, hidden h, per-rank width hp = h/p, sequence s, head
// width dh and hl = heads/p local heads.
type Schedule func(c *Coster, R, h, hp, s, dh, hl float64)

// Cost assembles a planner cost closure from a style's per-layer forward
// and backward schedules: L layers per direction, plus the forward
// recomputation the backward phase repeats unless the workload disables
// it.
func Cost(forward, backward Schedule) func(plan.Workload, plan.Grid, plan.Topology) plan.Breakdown {
	return func(w plan.Workload, g plan.Grid, t plan.Topology) plan.Breakdown {
		p := g.Ranks
		R := float64(w.Tokens())
		h := float64(w.Hidden)
		hp := h / float64(p)
		s := float64(w.SeqLen)
		dh := h / float64(w.Heads)
		hl := float64(w.Heads) / float64(p)
		inter := t.SpansNodes(0, p-1)
		L := float64(w.Layers)

		fwd := &Coster{m: t.Cost, p: p, inter: inter}
		forward(fwd, R, h, hp, s, dh, hl)
		bwd := &Coster{m: t.Cost, p: p, inter: inter}
		backward(bwd, R, h, hp, s, dh, hl)

		fwdPhase := L * (fwd.comp + fwd.comm)
		comp := L * (fwd.comp + bwd.comp)
		bwdPhase := L * (bwd.comp + bwd.comm)
		if !w.NoRecompute {
			bwdPhase += fwdPhase
			comp += L * fwd.comp
		}
		return plan.Breakdown{
			Forward:        fwdPhase,
			Backward:       bwdPhase,
			ComputeSeconds: comp,
			CommSeconds:    fwdPhase + bwdPhase - comp,
		}
	}
}

// forwardLayer prices one Block.Forward on the replicated activation of R
// rows: QKV (column-parallel, local), local attention over heads/p heads,
// the output projection's forward all-reduce, the MLP's fc1 (local, GELU)
// and fc2 (all-reduce), with replicated layer norms and residual adds.
func forwardLayer(c *Coster, R, h, hp, s, dh, hl float64) {
	c.GEMM(R, 3*hp, h) // QKV
	c.Flops(R * 3 * hp * compute.FlopsPerAdd)
	c.Flops(R / s * hl * (4*s*s*dh + compute.FlopsPerSoftmax*s*s))
	c.GEMM(R, h, hp) // projection partial
	c.AllReduce(R * h)
	c.Flops(R * h * compute.FlopsPerAdd) // projection bias
	c.Flops(R * h * compute.FlopsPerAdd) // residual
	c.Flops(R * h * (compute.FlopsPerNorm + 2))
	c.GEMM(R, 4*hp, h) // fc1
	c.Flops(R * 4 * hp * (compute.FlopsPerAdd + compute.FlopsPerGELU))
	c.GEMM(R, h, 4*hp) // fc2 partial
	c.AllReduce(R * h)
	c.Flops(R * h * compute.FlopsPerAdd)
	c.Flops(R * h * compute.FlopsPerAdd)
	c.Flops(R * h * (compute.FlopsPerNorm + 2))
}

// backwardLayer prices one Block.Backward: the row-parallel linears
// propagate without communication, the column-parallel linears all-reduce
// the replicated input gradient — again two all-reduces per layer.
func backwardLayer(c *Coster, R, h, hp, s, dh, hl float64) {
	c.Flops(R * h * (compute.FlopsPerNorm + 2)) // ln2
	// fc2 (row-parallel): dW, bias sums, local dx.
	c.GEMM(4*hp, h, R)
	c.Flops(R * h * compute.FlopsPerAdd)
	c.GEMM(R, 4*hp, h)
	// fc1 (column-parallel): GELU gradient, dW, bias sums, dx all-reduce.
	c.Flops(R * 4 * hp * (compute.FlopsPerGELU + compute.FlopsPerAdd))
	c.GEMM(h, 4*hp, R)
	c.Flops(R * 4 * hp * compute.FlopsPerAdd)
	c.GEMM(R, h, 4*hp)
	c.AllReduce(R * h)
	c.Flops(R * h * compute.FlopsPerAdd) // residual
	c.Flops(R * h * (compute.FlopsPerNorm + 2))
	// Projection (row-parallel).
	c.GEMM(hp, h, R)
	c.Flops(R * h * compute.FlopsPerAdd)
	c.GEMM(R, hp, h)
	c.Flops(R / s * hl * (8*s*s*dh + compute.FlopsPerSoftmax*s*s))
	// QKV (column-parallel).
	c.GEMM(h, 3*hp, R)
	c.Flops(R * 3 * hp * compute.FlopsPerAdd)
	c.GEMM(R, h, 3*hp)
	c.AllReduce(R * h)
	c.Flops(R * h * compute.FlopsPerAdd)
}

// megatronMemory estimates the bytes one rank holds across a training
// step: the sharded parameters with gradients, and the activation set the
// backward pass retains — four full-width replicated copies per layer plus
// the sharded attention/MLP intermediates and softmax probabilities, which
// is what Eq. 9 charges the family for.
func megatronMemory(w plan.Workload, g plan.Grid) int64 {
	p := float64(g.Ranks)
	R := float64(w.Tokens())
	h := float64(w.Hidden)
	hp := h / p
	s := float64(w.SeqLen)
	hl := float64(w.Heads) / p
	L := float64(w.Layers)
	weights := 12*h*hp + 7*hp + 2*h // shards + column biases + replicated row biases
	probs := float64(w.Batch) * hl * s * s
	acts := R*(4*h+12*hp) + probs
	io := 2 * R * h
	return plan.Bytes(L*(2*weights+acts) + io)
}

package plan

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dist"
	"repro/internal/parallel"
)

// ErrNoFeasible is the sentinel wrapped by every "no feasible layout"
// failure: Search found no candidate inside the budgets, or Replan ran out
// of candidates its caller could instantiate. Callers branch on it with
// errors.Is (or errors.As on *NoFeasibleError for the replan details) to
// distinguish "there is nothing to run" — ride out, degrade, alert — from a
// malformed workload or topology.
var ErrNoFeasible = errors.New("no feasible layout")

// Workload describes the model a layout is being planned for: one stack of
// Transformer blocks of the kind every scheme in this repository implements
// (fused-QKV attention plus a 4h MLP, layer norms and residuals).
type Workload struct {
	// Batch is the global batch size (sequences per step).
	Batch int
	// SeqLen is the sequence length (default 512, as in internal/tables).
	SeqLen int
	// Hidden is the model width h; the MLP expands to 4h.
	Hidden int
	// Heads is the attention head count.
	Heads int
	// Layers is the number of Transformer blocks timed (default 1).
	Layers int
	// NoRecompute disables activation checkpointing. By default the
	// backward pass re-runs the forward first, matching the
	// memory-constrained execution internal/tables times.
	NoRecompute bool
}

// WithDefaults fills the zero fields with the harness defaults (SeqLen 512,
// Layers 1) and validates the rest.
func (w Workload) WithDefaults() (Workload, error) {
	if w.SeqLen == 0 {
		w.SeqLen = 512
	}
	if w.Layers == 0 {
		w.Layers = 1
	}
	if w.Batch <= 0 || w.Hidden <= 0 || w.Heads <= 0 || w.SeqLen <= 0 || w.Layers <= 0 {
		return w, fmt.Errorf("plan: workload needs positive batch/hidden/heads/seqlen/layers, got %+v", w)
	}
	if w.Hidden%w.Heads != 0 {
		return w, fmt.Errorf("plan: hidden %d not divisible by heads %d", w.Hidden, w.Heads)
	}
	return w, nil
}

// Tokens returns batch·seqLen, the global activation row count.
func (w Workload) Tokens() int { return w.Batch * w.SeqLen }

// BytesPerElem is the element size every estimate uses. The simulated
// cluster moves float64 matrices, so both sides of the
// predicted-vs-measured comparison price 8-byte elements.
const BytesPerElem = 8

// Bytes is the size of elems float64 elements, truncated to whole bytes.
func Bytes(elems float64) int64 { return int64(BytesPerElem * elems) }

// Grid is one processor layout. Ranks is the total processor count; Q and D
// describe the mesh for the 2-D/2.5-D families ([q, q] when D == 1 from an
// Optimus descriptor, [q, q, d] for Tesseract) and are zero for the 1-D
// Megatron family, whose layout is just [Ranks].
type Grid struct {
	Ranks, Q, D int
}

// Shape renders the layout the way the paper prints it: [p], [q,q] or
// [q,q,d].
func (g Grid) Shape() string {
	switch {
	case g.Q == 0:
		return fmt.Sprintf("[%d]", g.Ranks)
	case g.D <= 1:
		return fmt.Sprintf("[%d,%d]", g.Q, g.Q)
	default:
		return fmt.Sprintf("[%d,%d,%d]", g.Q, g.Q, g.D)
	}
}

// Topology is the machine the plans are priced against: the α–β cost model,
// the node size that decides which communicator groups pay inter-node
// rates, and the search budgets.
type Topology struct {
	// Cost is the α–β machine model (zero fields take the Meluxina preset,
	// exactly as in dist.Config).
	Cost dist.CostModel
	// GPUsPerNode maps ranks to nodes (default 4, as on Meluxina).
	GPUsPerNode int
	// RankBudget is the maximum processor count a grid may use.
	RankBudget int
	// ExactRanks restricts the search to grids that use exactly
	// RankBudget processors — the paper's fixed-p comparisons — instead
	// of letting a smaller layout win the ranking.
	ExactRanks bool
	// MemoryBudget is the per-rank memory limit in bytes; zero disables
	// the memory filter.
	MemoryBudget int64
}

// WithDefaults fills the zero fields (Meluxina cost model, 4 GPUs per node)
// and validates the rank budget.
func (t Topology) WithDefaults() (Topology, error) {
	t.Cost = t.Cost.WithDefaults()
	if t.GPUsPerNode == 0 {
		t.GPUsPerNode = 4
	}
	if t.GPUsPerNode < 1 {
		return t, fmt.Errorf("plan: GPUsPerNode %d must be positive", t.GPUsPerNode)
	}
	if t.RankBudget < 1 {
		return t, fmt.Errorf("plan: rank budget %d must be positive", t.RankBudget)
	}
	if t.MemoryBudget < 0 {
		return t, fmt.Errorf("plan: memory budget %d must be non-negative", t.MemoryBudget)
	}
	return t, nil
}

// SpansNodes reports whether the rank interval [lo, hi] crosses a node
// boundary — the test that decides whether a communicator group over ranks
// with ascending ids pays the inter-node β (node ids are monotone in rank,
// so only the endpoints matter).
func (t Topology) SpansNodes(lo, hi int) bool {
	return lo/t.GPUsPerNode != hi/t.GPUsPerNode
}

// Breakdown is the analytic score of one candidate: simulated seconds for
// the forward and backward phases (the backward includes the recompute
// forward unless the workload disables it), with the comm/compute split
// kept for diagnostics, plus the per-rank memory estimate.
type Breakdown struct {
	// Forward and Backward are predicted seconds per phase for the whole
	// layer stack, comparable to tables.Result.
	Forward, Backward float64
	// ComputeSeconds is the arithmetic-only part of Forward+Backward.
	ComputeSeconds float64
	// CommSeconds is the non-hidden communication part of
	// Forward+Backward — what the double-buffered schedules could not
	// overlap with compute.
	CommSeconds float64
	// MemoryBytes is the per-rank memory estimate from the family's
	// Memory closure.
	MemoryBytes int64
}

// Step returns the predicted seconds per training step (forward plus
// backward).
func (b Breakdown) Step() float64 { return b.Forward + b.Backward }

// Algo describes one algorithm family to the planner: a name plus the three
// closures the search needs. The closures must be pure — the planner calls
// them for every candidate grid.
type Algo struct {
	// Family names the scheme ("tesseract", "megatron", "optimus").
	Family string
	// Grids enumerates the family's feasible layouts for a workload
	// within a rank budget (divisibility constraints included).
	Grids func(w Workload, rankBudget int) []Grid
	// Cost prices a workload on one grid against the topology's cost
	// model, mirroring the communication schedule the implementation
	// actually executes. Cost must not fill Breakdown.MemoryBytes; the
	// search does, from Memory.
	Cost func(w Workload, g Grid, t Topology) Breakdown
	// Memory estimates the bytes one rank must hold: parameter shards
	// with gradients, retained activations, and the pipeline's working
	// buffers.
	Memory func(w Workload, g Grid) int64
}

// Plan is one ranked candidate: a family, a grid, and its analytic score.
type Plan struct {
	// Family is the Algo.Family that produced the candidate.
	Family string
	// Grid is the processor layout.
	Grid Grid
	// Predicted is the analytic score the ranking sorted by.
	Predicted Breakdown
}

// String renders "family [shape]".
func (p Plan) String() string { return fmt.Sprintf("%s %s", p.Family, p.Grid.Shape()) }

// Layout converts a ranked candidate into the runtime layout its family
// registers with the parallel package — the bridge that closes the
// plan→run gap: a grid the search can rank is a layout parallel.New can
// build, once the family's package is imported so its constructor is
// registered.
func (p Plan) Layout() parallel.Layout {
	return parallel.Layout{Family: p.Family, Q: p.Grid.Q, D: p.Grid.D, Ranks: p.Grid.Ranks}
}

// Search enumerates every feasible (family, grid) candidate within the
// topology's budgets, scores each analytically, and returns the full list
// ranked by predicted step time (ties: fewer ranks first, then less
// memory). Candidates over the memory budget are dropped; if every
// candidate is dropped, Search returns an error naming the tightest one so
// the caller can see how far the budget misses.
func Search(w Workload, t Topology, algos []Algo) ([]Plan, error) {
	w, err := w.WithDefaults()
	if err != nil {
		return nil, err
	}
	t, err = t.WithDefaults()
	if err != nil {
		return nil, err
	}
	if len(algos) == 0 {
		return nil, fmt.Errorf("plan: no algorithm families to search")
	}
	var out []Plan
	var tightest int64 = -1
	for _, a := range algos {
		for _, g := range a.Grids(w, t.RankBudget) {
			if t.ExactRanks && g.Ranks != t.RankBudget {
				continue
			}
			mem := a.Memory(w, g)
			if t.MemoryBudget > 0 && mem > t.MemoryBudget {
				if tightest < 0 || mem < tightest {
					tightest = mem
				}
				continue
			}
			b := a.Cost(w, g, t)
			b.MemoryBytes = mem
			out = append(out, Plan{Family: a.Family, Grid: g, Predicted: b})
		}
	}
	if len(out) == 0 {
		if tightest >= 0 {
			return nil, fmt.Errorf("plan: %w within %s per rank (smallest candidate needs %s)",
				ErrNoFeasible, FormatBytes(t.MemoryBudget), FormatBytes(tightest))
		}
		constraint := "within"
		if t.ExactRanks {
			constraint = "using exactly"
		}
		return nil, fmt.Errorf("plan: %w %s %d ranks (check divisibility of batch/hidden/heads)", ErrNoFeasible, constraint, t.RankBudget)
	}
	sort.SliceStable(out, func(i, j int) bool {
		si, sj := out[i].Predicted.Step(), out[j].Predicted.Step()
		if si != sj {
			return si < sj
		}
		if out[i].Grid.Ranks != out[j].Grid.Ranks {
			return out[i].Grid.Ranks < out[j].Grid.Ranks
		}
		return out[i].Predicted.MemoryBytes < out[j].Predicted.MemoryBytes
	})
	return out, nil
}

package dist

import (
	"fmt"
	"math"
)

// CostModel is the α–β machine model the simulated clocks run on. All times
// are seconds, all sizes bytes.
type CostModel struct {
	// FLOPS is the per-GPU dense floating-point throughput (flop/s) that
	// Worker.Compute and Worker.ChargeGEMM divide by.
	FLOPS float64
	// Alpha is the fixed per-message launch latency.
	Alpha float64
	// BetaIntra is the per-byte transfer cost between GPUs on one node
	// (NVLink-class links).
	BetaIntra float64
	// BetaInter is the per-byte transfer cost between GPUs on different
	// nodes (InfiniBand-class links, shared by the node's GPUs).
	BetaInter float64
}

// MeluxinaModel returns the preset for the paper's testbed: Meluxina
// (EuroHPC) nodes with four A100s each. FLOPS is the A100 tensor-core
// half-precision peak derated to a realistic GEMM efficiency; the intra
// rate is NVLink3, the inter rate is the node's HDR InfiniBand divided
// across its four GPUs.
func MeluxinaModel() CostModel {
	return CostModel{
		FLOPS:     312e12 * 0.8, // A100 fp16 peak × sustained efficiency
		Alpha:     2e-6,         // collective launch latency
		BetaIntra: 1.0 / 250e9,  // NVLink3 effective per direction
		BetaInter: 1.0 / 6.25e9, // 200 Gb/s HDR shared by 4 GPUs
	}
}

// WithDefaults validates the model and substitutes the Meluxina preset per
// field — the exported form of the normalisation dist.New applies to
// Config.Cost, so out-of-cluster consumers (the auto-parallelism planner,
// analytic studies) price operations with exactly the model a cluster built
// from the same config would charge. A zero field selects the preset;
// negative or non-finite fields panic.
func (m CostModel) WithDefaults() CostModel { return m.withDefaults() }

// withDefaults validates the model and substitutes the Meluxina preset per
// field, so dist.New(dist.Config{WorldSize: n}) charges sane times out of
// the box and a caller who overrides only some fields (say, Alpha for a
// latency study) still gets a finite FLOPS rate instead of Inf/NaN compute
// times. A zero field always and uniformly means "use the preset" — a
// study that wants genuinely free links must pass an epsilon instead —
// and non-finite or negative fields are nonsensical and panic.
func (m CostModel) withDefaults() CostModel {
	for _, v := range [...]float64{m.FLOPS, m.Alpha, m.BetaIntra, m.BetaInter} {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			panic(fmt.Sprintf("dist: invalid cost model %+v (fields must be finite and non-negative; zero selects the Meluxina default)", m))
		}
	}
	def := MeluxinaModel()
	if m.FLOPS == 0 {
		m.FLOPS = def.FLOPS
	}
	if m.Alpha == 0 {
		m.Alpha = def.Alpha
	}
	if m.BetaIntra == 0 {
		m.BetaIntra = def.BetaIntra
	}
	if m.BetaInter == 0 {
		m.BetaInter = def.BetaInter
	}
	return m
}

// HiddenFraction predicts the fraction of comm time a perfectly pipelined
// schedule hides behind compute: min(comm, compute)/comm — all of it when
// compute dominates, compute/comm of it when comm dominates. Zero comm
// hides trivially (returns 1). Compare against Cluster.Overlap's measured
// fraction.
func HiddenFraction(comm, compute float64) float64 {
	if comm <= 0 {
		return 1
	}
	return math.Min(comm, compute) / comm
}

// linkBeta selects the per-byte rate the exported pricing helpers charge:
// the inter-node link when the group spans nodes, the intra-node link
// otherwise.
func (m CostModel) linkBeta(interNode bool) float64 {
	if interNode {
		return m.BetaInter
	}
	return m.BetaIntra
}

// BroadcastSeconds prices a binomial-tree broadcast of b bytes among n
// ranks (inter-node links when interNode is set) — the per-iteration comm
// term analytic studies feed into HiddenFraction.
func (m CostModel) BroadcastSeconds(n int, b int64, interNode bool) float64 {
	return m.broadcastTime(n, b, m.linkBeta(interNode))
}

// ReduceSeconds prices a binomial-tree reduce of b bytes among n ranks —
// identical to a broadcast of the same payload (the tree runs in reverse),
// which is exactly how the simulated Group charges it.
func (m CostModel) ReduceSeconds(n int, b int64, interNode bool) float64 {
	return m.BroadcastSeconds(n, b, interNode)
}

// AllReduceSeconds prices a bandwidth-optimal ring all-reduce of b bytes
// among n ranks: 2(n−1) steps each moving b/n bytes (reduce-scatter then
// all-gather), matching the charge the simulated Group applies.
func (m CostModel) AllReduceSeconds(n int, b int64, interNode bool) float64 {
	return m.allReduceTime(n, b, m.linkBeta(interNode))
}

// AllGatherSeconds prices a ring all-gather among n ranks where every member
// contributes b bytes: n−1 steps each forwarding one member block.
func (m CostModel) AllGatherSeconds(n int, b int64, interNode bool) float64 {
	return m.allGatherTime(n, b, m.linkBeta(interNode))
}

// ReduceScatterSeconds prices a ring reduce-scatter of b payload bytes among
// n ranks: n−1 steps each moving b/n bytes — exactly the first half of the
// bandwidth-optimal ring all-reduce, matching the charge the simulated Group
// applies to ReduceScatterInto.
func (m CostModel) ReduceScatterSeconds(n int, b int64, interNode bool) float64 {
	return m.reduceScatterTime(n, b, m.linkBeta(interNode))
}

// GEMMSeconds prices the 2·m·n·k flops of an [mm×kk]·[kk×nn] multiply at
// the model's sustained rate.
func (m CostModel) GEMMSeconds(mm, nn, kk float64) float64 {
	return 2 * mm * nn * kk / m.FLOPS
}

// treeSteps is ⌈log₂ n⌉, the depth of a binomial tree over n ranks.
func treeSteps(n int) float64 {
	steps := 0
	for span := 1; span < n; span <<= 1 {
		steps++
	}
	return float64(steps)
}

// broadcastTime prices a binomial-tree broadcast (or reduce) of b bytes.
func (m CostModel) broadcastTime(n int, b int64, beta float64) float64 {
	if n <= 1 {
		return 0
	}
	return treeSteps(n) * (m.Alpha + float64(b)*beta)
}

// allReduceTime prices a bandwidth-optimal ring all-reduce of b bytes:
// 2(n−1) steps each moving B/n bytes (reduce-scatter + all-gather).
func (m CostModel) allReduceTime(n int, b int64, beta float64) float64 {
	if n <= 1 {
		return 0
	}
	nf := float64(n)
	return 2 * (nf - 1) * (m.Alpha + float64(b)/nf*beta)
}

// allGatherTime prices a ring all-gather where every member contributes b
// bytes: n−1 steps each forwarding one member block.
func (m CostModel) allGatherTime(n int, b int64, beta float64) float64 {
	if n <= 1 {
		return 0
	}
	return (float64(n) - 1) * (m.Alpha + float64(b)*beta)
}

// reduceScatterTime prices a ring reduce-scatter of b payload bytes: n−1
// steps each moving b/n bytes — half of allReduceTime's ring.
func (m CostModel) reduceScatterTime(n int, b int64, beta float64) float64 {
	if n <= 1 {
		return 0
	}
	nf := float64(n)
	return (nf - 1) * (m.Alpha + float64(b)/nf*beta)
}

// barrierTime prices a tree barrier (latency only).
func (m CostModel) barrierTime(n int) float64 {
	if n <= 1 {
		return 0
	}
	return treeSteps(n) * m.Alpha
}

// sendTime prices one point-to-point transfer of b bytes.
func (m CostModel) sendTime(b int64, beta float64) float64 {
	return m.Alpha + float64(b)*beta
}

// maxClock returns the largest clock in a contribution slice.
func maxClock(clocks []float64) float64 {
	out := math.Inf(-1)
	for _, c := range clocks {
		if c > out {
			out = c
		}
	}
	return out
}

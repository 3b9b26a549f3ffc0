package main

import (
	"math"
	"sort"
)

// Clock says where a metric's number comes from.
const (
	// wall is the Go process's wall clock: noisy, machine-dependent, and
	// what a performance change moves.
	wall = "wall"
	// sim is the simulated cluster's cost model (seconds, bytes, counts):
	// deterministic for a given seed, so any change to it is a behaviour
	// change that must be declared.
	sim = "sim"
	// count is a tally the Go runtime or the program keeps (allocations,
	// workspace gets, failures): near-deterministic.
	count = "count"
)

// def describes one metric. End-to-end metrics carry a Bound, the share of
// the base median by which the metric may worsen before a change counts as
// a regression; per-layer metrics carry Moves instead, naming the
// end-to-end metric and workload the layer should move.
type def struct {
	Name, Unit, Better, Clock string
	Bound                     float64
	Moves                     string
}

// endToEnd are the metrics a user of the system sees, reported by every
// workload with --trace 0. An "op" is one vit.TrainStep of one family on
// train-real, one pass over the tables and the planner on paper-phantom,
// and one served request on serve-open. The wall tail (see tail) is
// printed and saved beside wall_op_s_p50 but carries no bound: on a shared
// two-core machine it follows other tenants' bursts, moving over 20%
// between back-to-back sets of runs while the median moved under 10%.
var endToEnd = []def{
	{Name: "setup_s", Unit: "s", Better: "lower", Clock: wall, Bound: 0.25},
	{Name: "wall_ops_per_s", Unit: "op/s", Better: "higher", Clock: wall, Bound: 0.25},
	{Name: "wall_op_s_p50", Unit: "s", Better: "lower", Clock: wall, Bound: 0.25},
	{Name: "go_allocs_per_op", Unit: "allocs/op", Better: "lower", Clock: count, Bound: 0.2},
	{Name: "ok_frac", Unit: "frac", Better: "higher", Clock: count, Bound: 0.01},
	{Name: "sim_op_s_p50", Unit: "sim_s", Better: "lower", Clock: sim, Bound: 0.2},
	{Name: "sim_op_s_tail", Unit: "sim_s", Better: "lower", Clock: sim, Bound: 0.2},
}

// trainFamilies are the four layouts train-real trains, in order; the
// per-family layer metrics expand over their names.
var trainFamilies = []string{"tesseract", "optimus", "megatron", "seqpar"}

// blockSubLayers are the families whose blocks are parallel.Block, so
// their attention, MLP and layer norms are traced one by one.
var blockSubLayers = map[string]bool{"megatron": true, "seqpar": true}

// perLayer are the metrics of single layers, reported by every workload
// with --trace 1. Layers a workload does not exercise are measured by a
// short traced probe of the workload that does.
var perLayer = buildPerLayer()

func buildPerLayer() []def {
	const (
		trainWall = "wall_ops_per_s on train-real"
		trainSim  = "sim_op_s_p50 on train-real"
		studyWall = "wall_op_s_p50 on paper-phantom"
		serveWall = "wall_ops_per_s on serve-open"
		serveSim  = "sim_op_s_tail on serve-open"
	)
	out := []def{
		{Name: "tensor.gemm_gflops", Unit: "GFLOP/s", Better: "higher", Clock: wall, Moves: trainWall + " and " + serveWall + "; nothing on paper-phantom"},
		{Name: "tensor.gelu_ns_per_elem", Unit: "ns", Better: "lower", Clock: wall, Moves: trainWall + " and " + serveWall + "; nothing on paper-phantom"},
		{Name: "tensor.softmax_ns_per_elem", Unit: "ns", Better: "lower", Clock: wall, Moves: trainWall + " and " + serveWall + "; nothing on paper-phantom"},
		{Name: "tensor.ws_gets_per_step", Unit: "count", Better: "lower", Clock: count, Moves: "go_allocs_per_op on train-real"},
		{Name: "tensor.ws_misses_per_step", Unit: "count", Better: "lower", Clock: count, Moves: "go_allocs_per_op on train-real"},
		{Name: "tensor.peak_rank_bytes", Unit: "B", Better: "lower", Clock: sim, Moves: "memory only; no end-to-end time"},
		{Name: "nn.serial_step_ms", Unit: "ms", Better: "lower", Clock: wall, Moves: trainWall + "; a dist change must leave it unchanged"},
		{Name: "nn.adam_ms", Unit: "ms", Better: "lower", Clock: wall, Moves: trainWall},
		{Name: "vit.step_self_ms", Unit: "ms", Better: "lower", Clock: wall, Moves: trainWall + " and go_allocs_per_op on train-real"},
	}
	for _, f := range trainFamilies {
		out = append(out,
			def{Name: f + ".block_fwd_ms", Unit: "ms", Better: "lower", Clock: wall, Moves: trainWall + " and " + serveWall},
			def{Name: f + ".block_bwd_ms", Unit: "ms", Better: "lower", Clock: wall, Moves: trainWall},
			def{Name: f + ".drain_ms", Unit: "ms", Better: "lower", Clock: wall, Moves: trainWall},
			def{Name: f + ".gather_ms", Unit: "ms", Better: "lower", Clock: wall, Moves: trainWall + " and " + serveWall},
			def{Name: f + ".block_fwd_sim_s", Unit: "sim_s", Better: "lower", Clock: sim, Moves: trainSim},
			def{Name: f + ".block_bwd_sim_s", Unit: "sim_s", Better: "lower", Clock: sim, Moves: trainSim},
			def{Name: f + ".drain_sim_s", Unit: "sim_s", Better: "lower", Clock: sim, Moves: trainSim},
		)
		if blockSubLayers[f] {
			out = append(out,
				def{Name: f + ".attn_fwd_ms", Unit: "ms", Better: "lower", Clock: wall, Moves: trainWall + " and " + serveWall},
				def{Name: f + ".attn_bwd_ms", Unit: "ms", Better: "lower", Clock: wall, Moves: trainWall},
				def{Name: f + ".mlp_fwd_ms", Unit: "ms", Better: "lower", Clock: wall, Moves: trainWall + " and " + serveWall},
				def{Name: f + ".mlp_bwd_ms", Unit: "ms", Better: "lower", Clock: wall, Moves: trainWall},
				def{Name: f + ".ln_ms", Unit: "ms", Better: "lower", Clock: wall, Moves: trainWall + " and " + serveWall},
			)
		}
	}
	for _, f := range trainFamilies {
		out = append(out,
			def{Name: "dist.calls_per_step." + f, Unit: "count", Better: "lower", Clock: sim, Moves: trainSim},
			def{Name: "dist.bytes_per_step." + f, Unit: "B", Better: "lower", Clock: sim, Moves: trainSim},
			def{Name: "dist.overlap_frac." + f, Unit: "frac", Better: "higher", Clock: sim, Moves: trainSim},
			def{Name: "dist.sim_wait_frac." + f, Unit: "frac", Better: "lower", Clock: sim, Moves: trainSim},
		)
	}
	out = append(out,
		def{Name: "dist.phantom_ns_per_call", Unit: "ns", Better: "lower", Clock: wall, Moves: studyWall + "; barely " + trainWall},
		def{Name: "parallel.collect_ms", Unit: "ms", Better: "lower", Clock: wall, Moves: trainWall},
		def{Name: "parallel.collect_sim_s", Unit: "sim_s", Better: "lower", Clock: sim, Moves: trainSim},
		def{Name: "tables.row_ms.megatron", Unit: "ms", Better: "lower", Clock: wall, Moves: studyWall},
		def{Name: "tables.row_ms.optimus", Unit: "ms", Better: "lower", Clock: wall, Moves: studyWall},
		def{Name: "tables.row_ms.tesseract", Unit: "ms", Better: "lower", Clock: wall, Moves: studyWall},
		def{Name: "plan.search_ms", Unit: "ms", Better: "lower", Clock: wall, Moves: studyWall},
		def{Name: "plan.validate_ms", Unit: "ms", Better: "lower", Clock: wall, Moves: studyWall},
		def{Name: "serve.batch_wall_ms", Unit: "ms", Better: "lower", Clock: wall, Moves: serveWall},
		def{Name: "serve.mean_batch", Unit: "count", Better: "higher", Clock: sim, Moves: serveWall + " and " + serveSim},
		def{Name: "serve.queue_wait_p50_s", Unit: "sim_s", Better: "lower", Clock: sim, Moves: serveSim},
		def{Name: "serve.max_rps.tesseract", Unit: "sim_req/s", Better: "higher", Clock: sim, Moves: serveSim},
		def{Name: "serve.max_rps.megatron", Unit: "sim_req/s", Better: "higher", Clock: sim, Moves: serveSim},
		def{Name: "trace.overhead_frac", Unit: "frac", Better: "lower", Clock: wall, Moves: "none: the traced run's cost over the untraced one"},
	)
	return out
}

// lookup finds a metric definition by name.
func lookup(name string) (def, bool) {
	for _, set := range [][]def{endToEnd, perLayer} {
		for _, d := range set {
			if d.Name == name {
				return d, true
			}
		}
	}
	return def{}, false
}

// Metric is one reported number with the samples it was derived from.
type Metric struct {
	Name, Unit, Clock string
	Value             float64
	Samples           []float64
	Note              string
}

// Summary is a metric's sample distribution: n, median and quartiles
// (Python's statistics.quantiles(values, n=4) exclusive method).
type Summary struct {
	N              int
	Q1, Median, Q3 float64
	// Tail is the highest order statistic with ten samples beyond it, at
	// quantile TailQ (see tail).
	Tail, TailQ float64
}

// summarize computes the sample summary; an empty sample summarizes to
// zeros.
func summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := sortedCopy(xs)
	q1, q3 := quartiles(s)
	t, tq := tail(s)
	return Summary{N: len(s), Q1: q1, Median: median(s), Q3: q3, Tail: t, TailQ: tq}
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an ascending sample.
func median(s []float64) float64 {
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is median on an unsorted sample.
func medianOf(xs []float64) float64 { return median(sortedCopy(xs)) }

// quartiles of an ascending sample by the exclusive method of Python's
// statistics.quantiles(values, n=4), extrapolation at small n included; a
// single sample is its own quartiles.
func quartiles(s []float64) (q1, q3 float64) {
	ld := len(s)
	if ld < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := ld + 1
		j := min(max(i*m/4, 1), ld-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// tail returns the highest order statistic of an ascending sample that
// still has at least ten samples beyond it, and the quantile it sits at.
// That statistic lies above the median only from 21 samples on; smaller
// samples report their maximum, at quantile 1.
func tail(s []float64) (v, q float64) {
	n := len(s)
	if n < 21 {
		return s[n-1], 1
	}
	k := n - 11
	return s[k], float64(k+1) / float64(n)
}

// tailOf is tail on an unsorted sample.
func tailOf(xs []float64) float64 {
	v, _ := tail(sortedCopy(xs))
	return v
}

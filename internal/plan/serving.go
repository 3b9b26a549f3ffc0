package plan

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/parallel"
)

// ServingObjective weights the two things a serving layout trades off:
// interactive latency — the forward time of the smallest batch the layout
// can run, one request padded up to its row-shard unit — against
// steady-state cost per request — the forward time of a full batch divided
// by its size. Training's step-time ranking disappears entirely: no
// backward, no recompute, no gradient traffic.
type ServingObjective struct {
	// LatencyWeight multiplies the min-batch forward seconds (default 1).
	LatencyWeight float64
	// ThroughputWeight multiplies the full-batch per-request service
	// seconds (default 1).
	ThroughputWeight float64
}

// WithDefaults fills a fully zero objective with equal weights and rejects
// negative ones.
func (o ServingObjective) WithDefaults() (ServingObjective, error) {
	if o.LatencyWeight == 0 && o.ThroughputWeight == 0 {
		o.LatencyWeight, o.ThroughputWeight = 1, 1
	}
	if o.LatencyWeight < 0 || o.ThroughputWeight < 0 {
		return o, fmt.Errorf("plan: serving objective weights must be non-negative, got %+v", o)
	}
	return o, nil
}

// ServingPredicted is the analytic serving score of one candidate. The
// workload's Batch is the batcher's full batch; MinBatch is the smallest
// batch the grid can run (its row-shard count — one request padded up).
type ServingPredicted struct {
	// MinBatch is the padded interactive batch size in sequences.
	MinBatch int
	// MinLatency is the predicted forward seconds at MinBatch — what a
	// lone request pays.
	MinLatency float64
	// FullLatency is the predicted forward seconds at the full batch.
	FullLatency float64
	// Throughput is the predicted saturated service rate, Batch /
	// FullLatency, in requests per second.
	Throughput float64
	// MemoryBytes is the family's (training-shaped, hence conservative)
	// per-rank memory estimate.
	MemoryBytes int64
}

// ServingPlan is one ranked serving candidate.
type ServingPlan struct {
	// Family is the Algo.Family that produced the candidate.
	Family string
	// Grid is the processor layout.
	Grid Grid
	// Predicted is the analytic serving score.
	Predicted ServingPredicted
	// Score is the weighted objective the ranking sorted by (lower is
	// better).
	Score float64
}

// String renders "family [shape]".
func (p ServingPlan) String() string { return fmt.Sprintf("%s %s", p.Family, p.Grid.Shape()) }

// Layout converts the candidate into the runtime layout, exactly like
// Plan.Layout.
func (p ServingPlan) Layout() parallel.Layout {
	return parallel.Layout{Family: p.Family, Q: p.Grid.Q, D: p.Grid.D, Ranks: p.Grid.Ranks}
}

// SearchServing enumerates every feasible (family, grid) candidate exactly
// like Search, but scores each for serving: the family's Cost closure is
// evaluated forward-only at two batch sizes — the grid's minimum and the
// workload's full batch — and the weighted objective ranks the list
// (ascending; ties prefer fewer ranks, then less memory). The workload's
// Batch is the serving batcher's MaxBatch. The memory filter reuses the
// training-shaped Memory closure, a conservative bound for an inference
// process that holds no gradients or optimiser state.
func SearchServing(w Workload, t Topology, algos []Algo, o ServingObjective) ([]ServingPlan, error) {
	w, err := w.WithDefaults()
	if err != nil {
		return nil, err
	}
	t, err = t.WithDefaults()
	if err != nil {
		return nil, err
	}
	o, err = o.WithDefaults()
	if err != nil {
		return nil, err
	}
	if len(algos) == 0 {
		return nil, fmt.Errorf("plan: no algorithm families to search")
	}
	var out []ServingPlan
	var tightest int64 = -1
	for _, a := range algos {
		for _, g := range a.Grids(w, t.RankBudget) {
			sp := ServingPlan{Family: a.Family, Grid: g}
			unit := sp.Layout().RowShards()
			if unit > w.Batch {
				continue // the grid cannot even fit one padded request per forward
			}
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
			wmin := w
			wmin.Batch = unit
			pred := ServingPredicted{
				MinBatch:    unit,
				MinLatency:  a.Cost(wmin, g, t).Forward,
				FullLatency: a.Cost(w, g, t).Forward,
				MemoryBytes: mem,
			}
			if pred.FullLatency > 0 {
				pred.Throughput = float64(w.Batch) / pred.FullLatency
			}
			sp.Predicted = pred
			sp.Score = o.LatencyWeight*pred.MinLatency + o.ThroughputWeight*pred.FullLatency/float64(w.Batch)
			out = append(out, sp)
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
		return nil, fmt.Errorf("plan: %w %s %d ranks for serving (check divisibility of batch/hidden/heads)", ErrNoFeasible, constraint, t.RankBudget)
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Score != out[j].Score {
			return out[i].Score < out[j].Score
		}
		if out[i].Grid.Ranks != out[j].Grid.Ranks {
			return out[i].Grid.Ranks < out[j].Grid.Ranks
		}
		return out[i].Predicted.MemoryBytes < out[j].Predicted.MemoryBytes
	})
	return out, nil
}

// ServingMeasurement is what a serving replay of one candidate observed —
// typically serve.MeasureLayout driving the real batcher over a phantom
// layer stack on the simulated cluster.
type ServingMeasurement struct {
	// MinLatency and FullLatency are measured mean service seconds of
	// min-batch and full-batch forwards.
	MinLatency, FullLatency float64
	// Throughput is the measured saturated rate in requests per second.
	Throughput float64
}

// ServingMeasurer replays one serving candidate for real.
type ServingMeasurer func(ServingPlan) (ServingMeasurement, error)

// ServingValidation pairs a candidate with its replay and the relative
// prediction errors.
type ServingValidation struct {
	// Plan is the candidate that was replayed.
	Plan ServingPlan
	// Measured is the replay's observation.
	Measured ServingMeasurement
	// MinErr, FullErr and ThrErr are |predicted − measured| / measured for
	// the min-batch latency, full-batch latency and throughput.
	MinErr, FullErr, ThrErr float64
}

// Validate replays the candidate through the measurer and reports the
// predicted-vs-measured errors.
func (p ServingPlan) Validate(measure ServingMeasurer) (ServingValidation, error) {
	m, err := measure(p)
	if err != nil {
		return ServingValidation{}, fmt.Errorf("plan: validating serving %s: %w", p, err)
	}
	return ServingValidation{
		Plan:     p,
		Measured: m,
		MinErr:   relErr(p.Predicted.MinLatency, m.MinLatency),
		FullErr:  relErr(p.Predicted.FullLatency, m.FullLatency),
		ThrErr:   relErr(p.Predicted.Throughput, m.Throughput),
	}, nil
}

// ValidateServingTop replays the first n candidates of a ranked list and
// returns their validations in rank order.
func ValidateServingTop(plans []ServingPlan, n int, measure ServingMeasurer) ([]ServingValidation, error) {
	if n > len(plans) {
		n = len(plans)
	}
	if n < 0 {
		n = 0
	}
	out := make([]ServingValidation, 0, n)
	for _, p := range plans[:n] {
		v, err := p.Validate(measure)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

// MaxServingErr returns the largest latency error (min- or full-batch) in a
// validation list — the number the serving acceptance gate tracks against
// the PR 4 bound of 25%.
func MaxServingErr(vs []ServingValidation) float64 {
	var max float64
	for _, v := range vs {
		if v.MinErr > max {
			max = v.MinErr
		}
		if v.FullErr > max {
			max = v.FullErr
		}
	}
	return max
}

// FormatServingPlans renders a ranked serving-plan list. n limits the rows
// (0 = all).
func FormatServingPlans(title string, plans []ServingPlan, n int) string {
	if n <= 0 || n > len(plans) {
		n = len(plans)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%4s %-12s %-9s %5s | %5s %11s %11s %11s | %10s %10s\n",
		"#", "family", "shape", "ranks", "minB", "min-lat(s)", "full-lat(s)", "thru(r/s)", "score", "mem/rank")
	b.WriteString(strings.Repeat("-", 108) + "\n")
	for i, p := range plans[:n] {
		pr := p.Predicted
		fmt.Fprintf(&b, "%4d %-12s %-9s %5d | %5d %11.5f %11.5f %11.1f | %10.5f %10s\n",
			i+1, p.Family, p.Grid.Shape(), p.Grid.Ranks,
			pr.MinBatch, pr.MinLatency, pr.FullLatency, pr.Throughput, p.Score, FormatBytes(pr.MemoryBytes))
	}
	return b.String()
}

// FormatServingValidations renders a serving-validation list: predicted vs
// measured latencies and throughput with their relative errors.
func FormatServingValidations(title string, vs []ServingValidation) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%4s %-12s %-9s | %10s %10s %7s | %10s %10s %7s | %7s\n",
		"#", "family", "shape", "pred-min", "meas-min", "err", "pred-full", "meas-full", "err", "thr-err")
	b.WriteString(strings.Repeat("-", 110) + "\n")
	for i, v := range vs {
		fmt.Fprintf(&b, "%4d %-12s %-9s | %10.5f %10.5f %6.1f%% | %10.5f %10.5f %6.1f%% | %6.1f%%\n",
			i+1, v.Plan.Family, v.Plan.Grid.Shape(),
			v.Plan.Predicted.MinLatency, v.Measured.MinLatency, 100*v.MinErr,
			v.Plan.Predicted.FullLatency, v.Measured.FullLatency, 100*v.FullErr,
			100*v.ThrErr)
	}
	return b.String()
}

package main

import (
	"fmt"
	"reflect"
	"runtime"
	"time"

	"repro/internal/plan"
	"repro/internal/tables"
	"repro/internal/tensor"
)

const phantomWhy = "closed loop of passes over the 25 Table 1/2 rows and the 64-rank planner: shape-only matrices, so dist, workspace, tables and plan do all the work and kernels none"

// maxPlannerErr is the largest predicted-vs-replayed step error the
// planner's top three may show.
const maxPlannerErr = 0.25

// phantomRows are Tables 1 and 2 in the paper's order.
func phantomRows() []tables.Row {
	return append(tables.Table1Rows(), tables.Table2Rows()...)
}

// passResult is what one pass computed: every row's simulated columns in
// the paper's order, and per planner scenario the winner and the largest
// top-3 replay error.
type passResult struct {
	rows   []tables.Result
	picks  []plan.Plan
	errMax []float64
}

// simSeconds sums the rows' simulated forward plus backward seconds.
func (p passResult) simSeconds() float64 {
	var s float64
	for _, r := range p.rows {
		s += r.Forward + r.Backward
	}
	return s
}

// schemeSpan names a row's span after its scheme, as tables.row_ms does.
var schemeSpan = map[tables.Scheme]string{
	tables.Megatron:  "row.megatron",
	tables.Optimus:   "row.optimus",
	tables.Tesseract: "row.tesseract",
}

// phantomPass runs every row in the given order, then searches and
// validates both planner scenarios.
func phantomPass(rows []tables.Row, order []int, rt *rankTrace) (passResult, error) {
	out := passResult{rows: make([]tables.Result, len(rows))}
	root := rt.begin("pass", 0)
	defer rt.end(root, 0)
	for _, i := range order {
		sp := rt.begin(schemeSpan[rows[i].Scheme], 0)
		res, err := tables.RunRow(rows[i], tables.Options{})
		rt.end(sp, 0)
		if err != nil {
			return out, fmt.Errorf("row %d (%s %s): %w", i, rows[i].Scheme, rows[i].Shape(), err)
		}
		out.rows[i] = res
	}
	for _, sc := range tables.PlannerScenarios() {
		topo := plan.Topology{RankBudget: sc.RankBudget, ExactRanks: true}
		sp := rt.begin("plan.search", 0)
		plans, err := plan.Search(sc.Workload, topo, tables.DefaultAlgos())
		rt.end(sp, 0)
		if err != nil {
			return out, fmt.Errorf("planner %q: %w", sc.Name, err)
		}
		sp = rt.begin("plan.validate", 0)
		vs, err := plan.ValidateTop(plans, 3, tables.MeasurePlan(sc.Workload, tables.Options{}))
		rt.end(sp, 0)
		if err != nil {
			return out, fmt.Errorf("planner %q: %w", sc.Name, err)
		}
		out.picks = append(out.picks, plans[0])
		out.errMax = append(out.errMax, plan.MaxStepErr(vs))
	}
	return out, nil
}

// checkPlanner requires Tesseract [4,4,4] to win every scenario with a
// top-3 replay error within maxPlannerErr.
func checkPlanner(p passResult) error {
	for i, pick := range p.picks {
		if pick.Family != "tesseract" || pick.Grid.Q != 4 || pick.Grid.D != 4 {
			return fmt.Errorf("scenario %d: planner picked %s, want tesseract [4,4,4]", i, pick)
		}
		if !(p.errMax[i] <= maxPlannerErr) {
			return fmt.Errorf("scenario %d: top-3 replay error %.3g > %.2f", i, p.errMax[i], maxPlannerErr)
		}
	}
	return nil
}

// checkTable1 requires Table 1's Tesseract [4,4,4] forward to beat
// Megatron [64] and Optimus [8,8].
func checkTable1(rows []tables.Row, res []tables.Result) error {
	fwd := map[string]float64{}
	for i, r := range rows[:len(tables.Table1Rows())] {
		fwd[string(r.Scheme)+" "+r.Shape()] = res[i].Forward
	}
	t := fwd["Tesseract [4,4,4]"]
	for _, rival := range []string{"Megatron-LM [64]", "Optimus [8,8]"} {
		if !(t < fwd[rival]) {
			return fmt.Errorf("Tesseract [4,4,4] forward %.6g does not beat %s %.6g", t, rival, fwd[rival])
		}
	}
	return nil
}

// phantomRecord is what one paper-phantom execution observed.
type phantomRecord struct {
	setups  []float64
	walls   []float64
	mallocs uint64
	first   passResult
	drift   error // first pass that computed differently from the first
	tr      *tracer
	rows    []tables.Row
}

func runPhantom(cfg Config, traced bool, rounds int) (record, error) {
	rec := &phantomRecord{rows: phantomRows()}
	order := tensor.NewRNG(cfg.Seed*7 + 1).Perm(len(rec.rows))
	if traced {
		rec.tr = newTracer("paper-phantom", 1, time.Now())
	}
	setups := cfg.Size.Setups
	if traced {
		setups = 1
	}
	// Set-up is a warm-up pass: each row builds its own cluster, so there
	// is nothing else to build.
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		p, err := phantomPass(rec.rows, order, nil)
		if err != nil {
			return nil, err
		}
		rec.setups = append(rec.setups, time.Since(t0).Seconds())
		rec.first = p
	}
	rt := rec.tr.rank(0)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	start := time.Now()
	for r := 0; keepGoing(r, rounds, start, cfg.Measure); r++ {
		t0 := time.Now()
		p, err := phantomPass(rec.rows, order, rt)
		if err != nil {
			return nil, err
		}
		rec.walls = append(rec.walls, time.Since(t0).Seconds())
		if rec.drift == nil && !reflect.DeepEqual(p, rec.first) {
			rec.drift = fmt.Errorf("pass %d computed different rows or planner results than the first", r)
		}
	}
	runtime.ReadMemStats(&ms)
	rec.mallocs = ms.Mallocs - mallocs0
	return rec, nil
}

func (r *phantomRecord) rounds() int           { return len(r.walls) }
func (r *phantomRecord) roundWalls() []float64 { return r.walls }

func (r *phantomRecord) tracers() []*tracer {
	if r.tr == nil {
		return nil
	}
	return []*tracer{r.tr}
}

func (r *phantomRecord) checks(res *Result) {
	res.check("paper-phantom: planner crowns Tesseract [4,4,4] with top-3 error <= 0.25", checkPlanner(r.first))
	res.check("paper-phantom: Table 1 [4,4,4] forward beats Megatron [64] and Optimus [8,8]", checkTable1(r.rows, r.first.rows))
	res.check("paper-phantom: every pass computes bitwise what the first did", r.drift)
}

func (r *phantomRecord) endToEnd(res *Result) {
	res.Attempted += len(r.walls)
	p50 := medianOf(r.walls)
	simPass := r.first.simSeconds()
	sims := make([]float64, len(r.walls))
	for i := range sims {
		sims[i] = simPass
	}
	res.add("setup_s", medianOf(r.setups), r.setups, "one warm-up pass")
	res.add("wall_ops_per_s", float64(len(r.walls))/sum(r.walls), nil, "passes per second")
	res.add("wall_op_s_p50", p50, r.walls, fmt.Sprintf("per pass of %d rows and 2 planner scenarios", len(r.rows)))
	res.add("go_allocs_per_op", float64(r.mallocs)/float64(len(r.walls)), nil, "Go mallocs per pass")
	res.add("ok_frac", 1, nil, "passes and checks that succeeded over those attempted")
	res.add("sim_op_s_p50", simPass, sims, "simulated forward plus backward seconds summed over the 25 rows")
	res.add("sim_op_s_tail", simPass, sims, "every pass simulates the same rows")
}

func (r *phantomRecord) layers(res *Result) {
	count := map[string]float64{}
	for _, row := range r.rows {
		count[schemeSpan[row.Scheme]]++
	}
	for _, s := range []string{"megatron", "optimus", "tesseract"} {
		xs := r.tr.series("pass", "row."+s, wallMS)
		for i := range xs {
			xs[i] /= count["row."+s]
		}
		res.add("tables.row_ms."+s, medianOf(xs), xs, "per tables.RunRow of the scheme")
	}
	search := r.tr.series("pass", "plan.search", wallMS)
	validate := r.tr.series("pass", "plan.validate", wallMS)
	res.add("plan.search_ms", medianOf(search), search, "both scenarios per pass")
	res.add("plan.validate_ms", medianOf(validate), validate, "both scenarios per pass")
}

func (r *phantomRecord) parity(other record) error {
	t, ok := other.(*phantomRecord)
	if !ok {
		return fmt.Errorf("parity against a %T", other)
	}
	if !reflect.DeepEqual(r.first, t.first) {
		return fmt.Errorf("traced pass computed different rows or planner results")
	}
	return nil
}

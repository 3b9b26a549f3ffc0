package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/plan"
	"repro/internal/tables"
)

// tinySize runs every workload in well under a second of measuring.
var tinySize = Size{Hidden: 16, Heads: 4, Image: 8, Batch: 8, Layers: 1, Chunk: 2, Setups: 1, HeadlineN: 100, SweepN: 40}

func tinyConfig(name string, trace bool) Config {
	return Config{Workload: name, Seed: 3, Measure: 50 * time.Millisecond, Trace: trace, Size: tinySize}
}

// lastJSON parses the summary line a run prints last.
func lastJSON(t *testing.T, out string) map[string]any {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var v map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out)
	}
	return v
}

// requireMetrics checks that a run printed exactly the registry's
// metrics, each with its unit, in the summary and in the text lines.
func requireMetrics(t *testing.T, out string, defs []def) {
	t.Helper()
	v := lastJSON(t, out)
	if v["correct"] != true {
		t.Fatalf("run not correct:\n%s", out)
	}
	metrics := v["metrics"].(map[string]any)
	if len(metrics) != len(defs) {
		t.Errorf("%d metrics printed, registry has %d", len(metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := metrics[d.Name].(map[string]any)
		if !ok {
			t.Errorf("metric %s missing", d.Name)
			continue
		}
		if m["unit"] != d.Unit {
			t.Errorf("metric %s unit %v, want %s", d.Name, m["unit"], d.Unit)
		}
		if !strings.Contains(out, d.Name) {
			t.Errorf("metric %s not printed by name", d.Name)
		}
	}
}

func TestTinyRunPrintsEveryEndToEndMetric(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, err := execute(tinyConfig(w.name, false))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			res.print(&buf)
			requireMetrics(t, buf.String(), endToEnd)
		})
	}
}

func TestTinyTracedRunPrintsEveryLayerMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("probes every workload")
	}
	cfg := tinyConfig("train-real", true)
	cfg.Out = t.TempDir()
	res, err := execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	res.print(&buf)
	requireMetrics(t, buf.String(), perLayer)
	b, err := os.ReadFile(filepath.Join(cfg.Out, "trace-train-real-seed3.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct{ TraceEvents []map[string]any }
	if err := json.Unmarshal(b, &trace); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("trace file has no events")
	}
}

func TestWrongLossFailsCheck(t *testing.T) {
	good := []float64{1.25, 1.125, 1.0625}
	fams := []*trainFam{{name: "tesseract", losses: good}, {name: "megatron", losses: append([]float64(nil), good...)}}
	if err := checkLosses(fams); err != nil {
		t.Fatalf("equal losses fail: %v", err)
	}
	fams[1].losses[1] += 1e-6
	if err := checkLosses(fams); err == nil {
		t.Fatal("a loss 1e-6 off passes the 1e-8 check")
	}
}

func TestWrongPlannerPickFailsCheck(t *testing.T) {
	tess := plan.Plan{Family: "tesseract", Grid: plan.Grid{Ranks: 64, Q: 4, D: 4}}
	good := passResult{picks: []plan.Plan{tess, tess}, errMax: []float64{0, 0.01}}
	if err := checkPlanner(good); err != nil {
		t.Fatalf("right picks fail: %v", err)
	}
	wrong := good
	wrong.picks = []plan.Plan{tess, {Family: "megatron", Grid: plan.Grid{Ranks: 64}}}
	if err := checkPlanner(wrong); err == nil {
		t.Fatal("megatron [64] passes as the planner's pick")
	}
	off := good
	off.errMax = []float64{0, 0.3}
	if err := checkPlanner(off); err == nil {
		t.Fatal("a 30% replay error passes")
	}
}

func TestTable1CheckNeedsTesseractAhead(t *testing.T) {
	rows := tables.Table1Rows()
	res := make([]tables.Result, len(rows))
	for i, r := range rows {
		res[i].Forward = 1
		if r.Scheme == tables.Tesseract && r.Q == 4 && r.D == 4 {
			res[i].Forward = 0.5
		}
	}
	if err := checkTable1(rows, res); err != nil {
		t.Fatalf("tesseract ahead fails: %v", err)
	}
	for i, r := range rows {
		if r.Scheme == tables.Optimus && r.Q == 8 {
			res[i].Forward = 0.25
		}
	}
	if err := checkTable1(rows, res); err == nil {
		t.Fatal("optimus [8,8] ahead passes")
	}
}

func TestFailedCheckExitsNonzero(t *testing.T) {
	res := &Result{}
	res.check("always fails", errors.New("wrong"))
	res.finish()
	if res.Correct || res.Failed != 1 {
		t.Fatalf("failed check left Correct=%v Failed=%d", res.Correct, res.Failed)
	}
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "no-such"}, &out, &errOut); code == 0 {
		t.Fatal("unknown workload exits 0")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(s); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Fatalf("quartiles %v %v, want 0.75 2.25", q1, q3)
	}
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, _ := tail(xs); v != 19 {
		t.Fatalf("tail of 0..29 is %v, want 19 (ten samples beyond it)", v)
	}
}

func TestCompareRefusesOtherFingerprint(t *testing.T) {
	dir := t.TempDir()
	base := &Result{Workload: "train-real", Fingerprint: Fingerprint{CPU: "a", NProc: 2}, Seed: 1}
	base.add("setup_s", 1, nil, "")
	head := &Result{Workload: "train-real", Fingerprint: Fingerprint{CPU: "a", NProc: 2}, Seed: 2}
	head.add("setup_s", 1.5, nil, "")
	other := &Result{Workload: "train-real", Fingerprint: Fingerprint{CPU: "b", NProc: 2}, Seed: 1}
	other.add("setup_s", 1, nil, "")
	for _, r := range []*Result{base, head, other} {
		r.finish()
	}
	save := func(r *Result, name string) string {
		b, err := json.Marshal(r.saved())
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	pb, ph, po := save(base, "base.json"), save(head, "head.json"), save(other, "other.json")
	lines, err := compare(pb, ph)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 1 || !strings.Contains(lines[0], "WORSE") {
		t.Fatalf("a 50%% slower set-up is not flagged: %q", lines)
	}
	if _, err := compare(pb, po); !errors.Is(err, errMismatch) {
		t.Fatalf("compare across fingerprints: %v, want errMismatch", err)
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and this package's
// metric and workload tables in step.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	if err := checkDefs(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Command   []string
		Paths     []string
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d here", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %+v, here %s %q", i, bj.Workloads[i], w.name, w.why)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d here", len(bj.EndToEnd), len(endToEnd))
	}
	for i, d := range endToEnd {
		got := bj.EndToEnd[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json %+v, here %+v", i, got, d)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d here", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		got := bj.PerLayer[i]
		if got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json %+v, here %+v", i, got, d)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// checkDefs reports a registry defect: a duplicated name, a name or unit
// outside the benchmark's character set, or a bad direction.
func checkDefs() error {
	seen := map[string]bool{}
	for _, set := range [][]def{endToEnd, perLayer} {
		for _, d := range set {
			if seen[d.Name] {
				return fmt.Errorf("metric %s defined twice", d.Name)
			}
			seen[d.Name] = true
			if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
				return fmt.Errorf("metric %s: name or unit %q outside the allowed characters", d.Name, d.Unit)
			}
			if d.Better != "lower" && d.Better != "higher" {
				return fmt.Errorf("metric %s: better %q", d.Name, d.Better)
			}
		}
	}
	return nil
}

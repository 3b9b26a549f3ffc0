// Command perfbench is the repository's benchmark. One invocation runs one
// named workload from a seed, measures it for a fixed time, checks that the
// program's outputs are correct and prints every metric by name with its
// unit; the last line of standard output is a JSON summary:
//
//	bash perfbench/run.sh --workload train-real --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics (endToEnd in
// metrics.go). With --trace 1 it repeats the run untraced and then traced,
// checks that both computed bitwise the same losses, simulated clocks and
// traffic statistics, and reports the per-layer metrics (perLayer) plus the
// tracing overhead. Spans are recorded from this package, around calls into
// each module's public functions; nothing inside the program changes.
//
// Two clocks are reported. Wall-clock metrics time the Go process and are
// what performance changes move. Simulated metrics (unit sim_s, and the
// per-layer bytes and counts marked sim) come from the cluster's cost model
// and repeat exactly for a seed: a change to one is a behaviour change.
//
// Every result is stamped with a machine fingerprint and written, with the
// sample count, median and quartiles of each metric, to the -out
// directory. "perfbench compare base.json head.json" compares two such
// files and refuses when their fingerprints differ.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// Config is one benchmark run's settings.
type Config struct {
	Workload string
	Seed     uint64
	// Measure is how long the measured loop runs; every loop completes at
	// least one round.
	Measure time.Duration
	Trace   bool
	Size    Size
	// Out is the directory for the result and trace files; empty writes
	// none.
	Out string
}

// Size scales the workloads. fullSize is the measured point; the tests
// use tinySize.
type Size struct {
	// The ViT of train-real and serve-open.
	Hidden, Heads, Image, Batch, Layers int
	// Chunk is the number of training steps between checkpoints.
	Chunk int
	// Setups is how many times a run sets up; setup_s is their median.
	Setups int
	// HeadlineN and SweepN are the requests per serve-open trace at the
	// headline rate and at the other fixed rates.
	HeadlineN, SweepN int
}

var fullSize = Size{Hidden: 64, Heads: 4, Image: 16, Batch: 16, Layers: 2, Chunk: 4, Setups: 5, HeadlineN: 2000, SweepN: 250}

// workload is one named input set. run executes it untraced or traced; a
// positive rounds fixes the number of measured rounds, otherwise the loop
// runs for cfg.Measure.
type workload struct {
	name, why string
	run       func(cfg Config, traced bool, rounds int) (record, error)
}

// record is what one execution of a workload observed.
type record interface {
	// rounds is the number of measured rounds; roundWalls their wall
	// seconds.
	rounds() int
	roundWalls() []float64
	// checks adds the correctness checks to r.
	checks(r *Result)
	// endToEnd adds the end-to-end metrics and the attempted op count.
	endToEnd(r *Result)
	// layers adds the per-layer metrics a traced record measured.
	layers(r *Result)
	// parity reports how a traced replay of the same rounds differs from
	// this untraced record; nil means bitwise equal.
	parity(traced record) error
	tracers() []*tracer
}

var workloads = []workload{
	{name: "train-real", why: trainWhy, run: runTrain},
	{name: "paper-phantom", why: phantomWhy, run: runPhantom},
	{name: "serve-open", why: serveWhy, run: runServe},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(args[1:], stdout, stderr)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: train-real, paper-phantom or serve-open")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 30, "seconds the measured loop runs")
	trace := fs.Int("trace", 0, "1 runs untraced then traced and reports per-layer metrics")
	out := fs.String("out", "", "directory for result and trace files (none when empty)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *trace < 0 || *trace > 1 || !(*seconds > 0) {
		fmt.Fprintf(stderr, "perfbench: need --workload train-real|paper-phantom|serve-open, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	cfg := Config{Workload: w.name, Seed: *seed, Measure: time.Duration(*seconds * float64(time.Second)),
		Trace: *trace == 1, Size: fullSize, Out: *out}
	res, err := execute(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	res.print(stdout)
	if cfg.Out != "" {
		if err := res.save(cfg); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// execute runs one configured benchmark and returns its result. An error
// means the run could not finish; a finished run with a failed check
// returns a result whose Correct is false.
func execute(cfg Config) (*Result, error) {
	w, ok := findWorkload(cfg.Workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
	}
	res := &Result{Workload: w.name, Seed: cfg.Seed, Trace: cfg.Trace, Fingerprint: fingerprint()}
	if !cfg.Trace {
		rec, err := w.run(cfg, false, 0)
		if err != nil {
			return nil, err
		}
		rec.checks(res)
		rec.endToEnd(res)
		res.finish()
		return res, nil
	}

	half := cfg
	half.Measure = cfg.Measure / 2
	bare, err := w.run(half, false, 0)
	if err != nil {
		return nil, err
	}
	traced, err := w.run(cfg, true, bare.rounds())
	if err != nil {
		return nil, err
	}
	bare.checks(res)
	traced.checks(res)
	res.check("traced run equals untraced run bitwise", bare.parity(traced))
	traced.layers(res)
	over := medianOf(traced.roundWalls())/medianOf(bare.roundWalls()) - 1
	res.add("trace.overhead_frac", over, nil, "median traced round wall over the untraced one, minus 1")
	tracers := traced.tracers()

	// Layers this workload does not exercise are measured by a short
	// traced probe of the workload that does.
	for _, o := range workloads {
		if o.name == w.name {
			continue
		}
		probe, err := o.run(cfg, true, 1)
		if err != nil {
			return nil, fmt.Errorf("probe of %s: %w", o.name, err)
		}
		probe.checks(res)
		probe.layers(res)
		tracers = append(tracers, probe.tracers()...)
	}
	if err := kernelLayers(cfg, res); err != nil {
		return nil, fmt.Errorf("kernel probes: %w", err)
	}
	res.finish()
	if cfg.Out != "" {
		if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.Out, fmt.Sprintf("trace-%s-seed%d.json", w.name, cfg.Seed))
		if err := writeChromeTrace(path, tracers); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
		res.Notes = append(res.Notes, "trace written to "+path)
	}
	return res, nil
}

// keepGoing says whether a measured loop starts round r: a fixed count of
// rounds when rounds > 0, otherwise rounds until d has elapsed since start,
// and always at least one.
func keepGoing(r, rounds int, start time.Time, d time.Duration) bool {
	if rounds > 0 {
		return r < rounds
	}
	return r == 0 || time.Since(start) < d
}

// Result is one run's outcome.
type Result struct {
	Workload    string
	Seed        uint64
	Trace       bool
	Fingerprint Fingerprint
	Correct     bool
	Attempted   int
	Failed      int
	Metrics     []Metric
	Checks      []Check
	Notes       []string
}

// Check is one correctness check; an empty Err means it passed.
type Check struct {
	Name string
	Err  string `json:",omitempty"`
}

// add records a metric; its unit and clock come from the registry, and a
// name the registry lacks is a bug in this package.
func (r *Result) add(name string, value float64, samples []float64, note string) {
	d, ok := lookup(name)
	if !ok {
		panic("perfbench: unregistered metric " + name)
	}
	r.Metrics = append(r.Metrics, Metric{Name: name, Unit: d.Unit, Clock: d.Clock, Value: value, Samples: samples, Note: note})
}

// check records a correctness check.
func (r *Result) check(name string, err error) {
	c := Check{Name: name}
	if err != nil {
		c.Err = err.Error()
	}
	r.Checks = append(r.Checks, c)
}

// note records one informational line.
func (r *Result) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// finish counts checks as attempted operations, fails any non-finite
// metric, settles ok_frac, and sets Correct when every check passed (an
// operation that failed without failing a check, such as a rejected
// request, lowers ok_frac only).
func (r *Result) finish() {
	for _, m := range r.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.check("metric "+m.Name+" is finite", fmt.Errorf("value %v", m.Value))
		}
	}
	r.Attempted += len(r.Checks)
	r.Correct = true
	for _, c := range r.Checks {
		if c.Err != "" {
			r.Failed++
			r.Correct = false
		}
	}
	if r.Attempted > 0 {
		for i := range r.Metrics {
			if r.Metrics[i].Name == "ok_frac" {
				r.Metrics[i].Value = 1 - float64(r.Failed)/float64(r.Attempted)
			}
		}
	}
}

// print writes the human-readable lines and, last, the JSON summary.
func (r *Result) print(w io.Writer) {
	fp := r.Fingerprint
	fmt.Fprintf(w, "perfbench %s seed %d trace %v\n", r.Workload, r.Seed, r.Trace)
	fmt.Fprintf(w, "fingerprint: cpu %q nproc %d GOMAXPROCS %d %s %s/%s\n", fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.GoVersion, fp.GOOS, fp.GOARCH)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "note: %s\n", n)
	}
	for _, c := range r.Checks {
		if c.Err == "" {
			fmt.Fprintf(w, "check ok: %s\n", c.Name)
		} else {
			fmt.Fprintf(w, "check FAILED: %s: %s\n", c.Name, c.Err)
		}
	}
	for _, m := range r.Metrics {
		s := summarize(m.Samples)
		fmt.Fprintf(w, "%-34s %-14.6g %-9s %-5s n=%d median=%.6g q1=%.6g q3=%.6g tail=%.6g (p%.0f)",
			m.Name, m.Value, m.Unit, m.Clock, s.N, s.Median, s.Q1, s.Q3, s.Tail, 100*s.TailQ)
		if m.Note != "" {
			fmt.Fprintf(w, "  (%s)", m.Note)
		}
		fmt.Fprintln(w)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, map[string]value{}}
	for _, m := range r.Metrics {
		if !math.IsNaN(m.Value) && !math.IsInf(m.Value, 0) {
			out.Metrics[m.Name] = value{m.Value, m.Unit}
		}
	}
	b, _ := json.Marshal(out) // plain strings, bools and finite floats: cannot fail
	fmt.Fprintln(w, string(b))
}

// savedMetric is a metric as the result file records it, with the
// end-to-end metric a per-layer one should move.
type savedMetric struct {
	Name, Unit, Clock string
	Value             float64
	Summary
	Note  string `json:",omitempty"`
	Moves string `json:",omitempty"`
}

// saved is the result file's layout.
type saved struct {
	Workload    string
	Seed        uint64
	Trace       bool
	Fingerprint Fingerprint
	Correct     bool
	Attempted   int
	Failed      int
	Checks      []Check
	Notes       []string
	Metrics     []savedMetric
}

func (r *Result) saved() saved {
	s := saved{Workload: r.Workload, Seed: r.Seed, Trace: r.Trace, Fingerprint: r.Fingerprint,
		Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Checks: r.Checks, Notes: r.Notes}
	for _, m := range r.Metrics {
		d, _ := lookup(m.Name) // add admits registered names only
		s.Metrics = append(s.Metrics, savedMetric{Name: m.Name, Unit: m.Unit, Clock: m.Clock, Value: m.Value,
			Summary: summarize(m.Samples), Note: m.Note, Moves: d.Moves})
	}
	return s
}

// save writes the result file into cfg.Out.
func (r *Result) save(cfg Config) error {
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r.saved(), "", " ")
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	trace := 0
	if r.Trace {
		trace = 1
	}
	path := filepath.Join(cfg.Out, fmt.Sprintf("result-%s-seed%d-trace%d.json", r.Workload, r.Seed, trace))
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// errMismatch is returned when two result files were taken on different
// machines or toolchains, or on different workloads.
var errMismatch = errors.New("results are not comparable")

// compare reads two result files and returns one line per metric both
// report: the base and head values and their ratio. It refuses files whose
// fingerprints or workloads differ.
func compare(basePath, headPath string) ([]string, error) {
	var base, head saved
	for _, f := range []struct {
		path string
		into *saved
	}{{basePath, &base}, {headPath, &head}} {
		b, err := os.ReadFile(f.path)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(b, f.into); err != nil {
			return nil, fmt.Errorf("%s: %w", f.path, err)
		}
	}
	if base.Fingerprint != head.Fingerprint {
		return nil, fmt.Errorf("%w: fingerprints differ: %+v vs %+v", errMismatch, base.Fingerprint, head.Fingerprint)
	}
	if base.Workload != head.Workload || base.Trace != head.Trace {
		return nil, fmt.Errorf("%w: %s trace %v vs %s trace %v", errMismatch, base.Workload, base.Trace, head.Workload, head.Trace)
	}
	hv := map[string]savedMetric{}
	for _, m := range head.Metrics {
		hv[m.Name] = m
	}
	var lines []string
	for _, b := range base.Metrics {
		h, ok := hv[b.Name]
		if !ok {
			continue
		}
		verdict := ""
		if d, ok := lookup(b.Name); ok && d.Bound > 0 {
			worse := (h.Value - b.Value) / b.Value
			if d.Better == "higher" {
				worse = -worse
			}
			verdict = "within bound"
			if worse > d.Bound {
				verdict = fmt.Sprintf("WORSE than bound %.2f", d.Bound)
			}
		}
		lines = append(lines, fmt.Sprintf("%-34s base %-12.6g head %-12.6g ratio %.4f %s", b.Name, b.Value, h.Value, h.Value/b.Value, verdict))
	}
	sort.Strings(lines)
	return lines, nil
}

func compareCmd(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: perfbench compare base.json head.json")
		return 2
	}
	lines, err := compare(args[0], args[1])
	if err != nil {
		fmt.Fprintf(stderr, "perfbench compare: %v\n", err)
		return 2
	}
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	return 0
}

package main

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"time"

	"repro/internal/dist"
	_ "repro/internal/megatron" // registers the family
	"repro/internal/nn"
	_ "repro/internal/optimus" // registers the family
	"repro/internal/parallel"
	_ "repro/internal/seqpar" // registers the family
	"repro/internal/vit"
)

const trainWhy = "closed loop of real ViT steps via vit.TrainStep on 4 families: tensor kernels, family layers, Adam and the trainer's 53-121 allocs/step do the work"

// trainLayouts are train-real's four families, in trainFamilies order.
var trainLayouts = []parallel.Layout{
	{Family: "tesseract", Q: 2, D: 2},
	{Family: "optimus", Q: 2},
	{Family: "megatron", Ranks: 4},
	{Family: "seqpar", Ranks: 4},
}

// lossTol is how far the families' per-step losses may drift apart: they
// train the same serial model and differ only in reduction order.
const lossTol = 1e-8

// trainInputs makes train-real's dataset, model and optimiser settings
// from the seed; the model seed also fixes the initial weights.
func trainInputs(seed uint64, sz Size) (*vit.Dataset, vit.ModelConfig, vit.TrainConfig) {
	dcfg := vit.DataConfig{Classes: 4, ImageSize: sz.Image, Channels: 3, PatchSize: 4,
		Train: 2 * sz.Batch, Test: sz.Batch, Seed: seed*3 + 1}
	ds := vit.NewDataset(dcfg)
	mcfg := vit.ModelConfig{PatchDim: dcfg.PatchDim(), SeqLen: dcfg.Patches(), Hidden: sz.Hidden,
		Heads: sz.Heads, Layers: sz.Layers, Classes: dcfg.Classes, Seed: seed*3 + 2}
	tc := vit.TrainConfig{BatchSize: sz.Batch, LR: 0.003, WeightDecay: 0.05, Seed: seed*3 + 3}
	return ds, mcfg, tc
}

// trainFam is one family's cluster, per-rank models, optimisers and
// checkpoints, and what its chunks observed.
type trainFam struct {
	name   string
	c      *dist.Cluster
	fams   []parallel.Family
	models []*vit.DistModel
	opts   []*nn.Adam
	cks    []*parallel.Checkpoint
	tr     *tracer
	mon    *dist.Monitor
	step   int

	losses              []float64 // rank 0's loss per step, warm-up included
	lossBuf             []float64 // one chunk's losses, reused
	stepSim, collectSim []float64 // per chunk, from a fresh clock window

	// Traced runs only: step-window traffic, overlap and wait totals.
	calls, bytes           int64
	hidden, commTotal      float64
	waitSum, monitoredTime float64
	measuredSteps          int
}

type trainSet struct {
	ds   *vit.Dataset
	mcfg vit.ModelConfig
	tc   vit.TrainConfig
	fams []*trainFam
}

// newTrainSet builds every family's cluster and models, and warms each up
// with one chunk and one checkpoint.
func newTrainSet(cfg Config, traced bool, epoch time.Time) (*trainSet, error) {
	ds, mcfg, tc := trainInputs(cfg.Seed, cfg.Size)
	set := &trainSet{ds: ds, mcfg: mcfg, tc: tc}
	for _, raw := range trainLayouts {
		l, err := parallel.Validate(raw)
		if err != nil {
			return nil, err
		}
		tf := &trainFam{name: l.Family, c: dist.New(dist.Config{WorldSize: l.Ranks}),
			fams: make([]parallel.Family, l.Ranks), models: make([]*vit.DistModel, l.Ranks),
			opts: make([]*nn.Adam, l.Ranks), cks: make([]*parallel.Checkpoint, l.Ranks)}
		if traced {
			tf.tr = newTracer("train-real "+l.String(), l.Ranks, epoch)
			tf.mon = tf.c.AttachMonitor(dist.MonitorConfig{Window: cfg.Size.Chunk, W: 1})
		}
		err = tf.c.Run(func(w *dist.Worker) error {
			f, err := parallel.New(w, l)
			if err != nil {
				return err
			}
			r := w.Rank()
			tf.fams[r] = f
			tf.models[r] = vit.NewDistModel(f, mcfg)
			tf.opts[r] = nn.NewAdam(tc.LR, tc.WeightDecay)
			if traced {
				traceModel(tf.models[r], tf.tr.rank(r))
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		set.fams = append(set.fams, tf)
	}
	for _, tf := range set.fams {
		if err := set.chunk(tf, cfg.Size.Chunk, false); err != nil {
			return nil, err
		}
	}
	return set, nil
}

// chunk runs n training steps down the trainer's real path on every rank
// of one family, then collects a checkpoint, each phase in a fresh
// simulated-clock window. measured adds the step window's traffic to the
// family's traced totals.
func (s *trainSet) chunk(tf *trainFam, n int, measured bool) error {
	traced := tf.tr != nil
	var before dist.Stats
	if traced {
		before = tf.c.Stats()
	}
	tf.c.ResetClocks()
	start := tf.step
	if len(tf.lossBuf) < n {
		tf.lossBuf = make([]float64, n)
	}
	losses := tf.lossBuf[:n]
	err := tf.c.Run(func(w *dist.Worker) error {
		r := w.Rank()
		rt := tf.tr.rank(r)
		for i := 0; i < n; i++ {
			sp := rt.begin("step", w.Clock())
			loss := vit.TrainStep(w, tf.fams[r], tf.models[r], tf.opts[r], s.ds, s.tc, s.mcfg.SeqLen, start+i)
			rt.end(sp, w.Clock())
			if r == 0 {
				losses[i] = loss
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	tf.step += n
	tf.losses = append(tf.losses, losses...)
	tf.stepSim = append(tf.stepSim, tf.c.MaxClock())
	if traced && measured {
		after := tf.c.Stats()
		tf.calls += callCount(after) - callCount(before)
		tf.bytes += after.Bytes - before.Bytes
		h, t := tf.c.Overlap()
		tf.hidden += h
		tf.commTotal += t
		for r := 0; r < tf.c.WorldSize(); r++ {
			for _, smp := range tf.mon.Samples(r) {
				tf.waitSum += smp.Total - smp.Busy
				tf.monitoredTime += smp.Total
			}
		}
		tf.measuredSteps += n
	}
	tf.c.ResetClocks()
	err = tf.c.Run(func(w *dist.Worker) error {
		r := w.Rank()
		rt := tf.tr.rank(r)
		sp := rt.begin("collect", w.Clock())
		ck, err := parallel.CollectInto(tf.cks[r], tf.fams[r], tf.models[r], tf.opts[r])
		rt.end(sp, w.Clock())
		tf.cks[r] = ck
		return err
	})
	if err != nil {
		return err
	}
	tf.collectSim = append(tf.collectSim, tf.c.MaxClock())
	return nil
}

// workspaceTotals sums the pool counters over every rank of every family
// and reports the largest per-rank activation footprint.
func (s *trainSet) workspaceTotals() (gets, misses int, peak int64, err error) {
	for _, tf := range s.fams {
		stats := make([]struct {
			gets, allocs int
			peak         int64
		}, tf.c.WorldSize())
		err = tf.c.Run(func(w *dist.Worker) error {
			st := w.Workspace().Stats()
			stats[w.Rank()].gets, stats[w.Rank()].allocs, stats[w.Rank()].peak = st.Gets, st.Allocs, st.HighWaterBytes
			return nil
		})
		if err != nil {
			return 0, 0, 0, err
		}
		for _, st := range stats {
			gets += st.gets
			misses += st.allocs
			peak = max(peak, st.peak)
		}
	}
	return gets, misses, peak, nil
}

// trainRecord is what one train-real execution observed.
type trainRecord struct {
	cfg       Config
	setups    []float64
	walls     []float64 // per round
	mallocs   uint64
	set       *trainSet
	stats     []dist.Stats // per family, at the end
	wsGets    int
	wsMisses  int
	peakBytes int64
}

func runTrain(cfg Config, traced bool, rounds int) (record, error) {
	epoch := time.Now()
	rec := &trainRecord{cfg: cfg}
	setups := cfg.Size.Setups
	if traced {
		setups = 1
	}
	for i := 0; i < setups; i++ {
		rec.set = nil
		runtime.GC()
		t0 := time.Now()
		set, err := newTrainSet(cfg, traced, epoch)
		if err != nil {
			return nil, err
		}
		rec.setups = append(rec.setups, time.Since(t0).Seconds())
		rec.set = set
	}
	set := rec.set
	var g0, m0 int
	if traced {
		for _, tf := range set.fams {
			tf.tr.reset() // the spans of the set-up's warm-up chunk
		}
		var err error
		if g0, m0, _, err = set.workspaceTotals(); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs0 := ms.Mallocs
	start := time.Now()
	for r := 0; keepGoing(r, rounds, start, cfg.Measure); r++ {
		t0 := time.Now()
		for _, tf := range set.fams {
			if err := set.chunk(tf, cfg.Size.Chunk, true); err != nil {
				return nil, err
			}
		}
		rec.walls = append(rec.walls, time.Since(t0).Seconds())
	}
	runtime.ReadMemStats(&ms)
	rec.mallocs = ms.Mallocs - mallocs0
	for _, tf := range set.fams {
		rec.stats = append(rec.stats, tf.c.Stats())
	}
	if traced {
		g1, m1, peak, err := set.workspaceTotals()
		if err != nil {
			return nil, err
		}
		rec.wsGets, rec.wsMisses, rec.peakBytes = g1-g0, m1-m0, peak
	}
	return rec, nil
}

func (r *trainRecord) rounds() int           { return len(r.walls) }
func (r *trainRecord) roundWalls() []float64 { return r.walls }

func (r *trainRecord) stepsPerRound() int { return len(r.set.fams) * r.cfg.Size.Chunk }

func (r *trainRecord) tracers() []*tracer {
	var out []*tracer
	for _, tf := range r.set.fams {
		if tf.tr != nil {
			out = append(out, tf.tr)
		}
	}
	return out
}

func (r *trainRecord) checks(res *Result) {
	res.check("train-real: four families' per-step losses agree within 1e-8", checkLosses(r.set.fams))
	res.check("train-real: simulated clocks repeat exactly chunk to chunk", r.simRepeats())
}

// checkLosses requires every family's per-step losses to agree with the
// first family's within lossTol.
func checkLosses(fams []*trainFam) error {
	ref := fams[0]
	for _, tf := range fams[1:] {
		if len(tf.losses) != len(ref.losses) {
			return fmt.Errorf("%s ran %d steps, %s %d", tf.name, len(tf.losses), ref.name, len(ref.losses))
		}
		for i, l := range tf.losses {
			if d := math.Abs(l - ref.losses[i]); !(d <= lossTol) {
				return fmt.Errorf("step %d: %s loss %.17g vs %s %.17g", i, tf.name, l, ref.name, ref.losses[i])
			}
		}
	}
	return nil
}

// simRepeats checks that every chunk of a family, the warm-up chunk of
// each set-up included, cost bitwise the same simulated time.
func (r *trainRecord) simRepeats() error {
	for _, tf := range r.set.fams {
		for i := range tf.stepSim {
			if tf.stepSim[i] != tf.stepSim[0] || tf.collectSim[i] != tf.collectSim[0] {
				return fmt.Errorf("%s chunk %d: step %v collect %v, chunk 0: step %v collect %v",
					tf.name, i, tf.stepSim[i], tf.collectSim[i], tf.stepSim[0], tf.collectSim[0])
			}
		}
	}
	return nil
}

func (r *trainRecord) endToEnd(res *Result) {
	steps := r.stepsPerRound()
	perStep := make([]float64, len(r.walls))
	for i, w := range r.walls {
		perStep[i] = w / float64(steps)
	}
	ops := steps * len(r.walls)
	res.Attempted += ops
	p50 := medianOf(perStep)
	simSteps := make([]float64, len(r.set.fams))
	var simSum float64
	for i, tf := range r.set.fams {
		simSteps[i] = tf.stepSim[0] / float64(r.cfg.Size.Chunk)
		simSum += simSteps[i]
	}
	res.add("setup_s", medianOf(r.setups), r.setups, "dataset, four clusters and models, one warm-up chunk")
	rate := float64(ops) / sum(r.walls)
	res.add("wall_ops_per_s", rate, nil, fmt.Sprintf("training steps per second; %.1f samples/s at batch %d", rate*float64(r.cfg.Size.Batch), r.cfg.Size.Batch))
	res.add("wall_op_s_p50", p50, perStep, fmt.Sprintf("per step over %d rounds of %d steps", len(r.walls), steps))
	res.add("go_allocs_per_op", float64(r.mallocs)/float64(ops), nil, fmt.Sprintf("Go mallocs per vit.TrainStep, checkpoints every %d steps included", r.cfg.Size.Chunk))
	res.add("ok_frac", 1, nil, "steps and checks that succeeded over those attempted")
	res.add("sim_op_s_p50", medianOf(simSteps), simSteps, fmt.Sprintf("simulated seconds per step over the four families; their sum is %.6g", simSum))
	res.add("sim_op_s_tail", tailOf(simSteps), simSteps, "slowest family's simulated step")
}

func (r *trainRecord) layers(res *Result) {
	var selfs, collectMS, collectSim []float64
	for _, tf := range r.set.fams {
		f, tr := tf.name, tf.tr
		for _, span := range []string{"block_fwd", "block_bwd", "drain", "gather"} {
			xs := tr.series("step", span, wallMS)
			res.add(f+"."+span+"_ms", medianOf(xs), xs, "")
		}
		for _, span := range []string{"block_fwd", "block_bwd", "drain"} {
			xs := tr.series("step", span, simS)
			res.add(f+"."+span+"_sim_s", medianOf(xs), xs, "")
		}
		if blockSubLayers[f] {
			for _, span := range []string{"attn_fwd", "attn_bwd", "mlp_fwd", "mlp_bwd", "ln"} {
				xs := tr.series("step", span, wallMS)
				res.add(f+"."+span+"_ms", medianOf(xs), xs, "")
			}
		}
		selfs = append(selfs, medianOf(tr.series("step", "step", selfMS)))
		collectMS = append(collectMS, medianOf(tr.series("collect", "collect", wallMS)))
		collectSim = append(collectSim, tf.collectSim[0])
		n := float64(tf.measuredSteps)
		res.add("dist.calls_per_step."+f, float64(tf.calls)/n, nil, "")
		res.add("dist.bytes_per_step."+f, float64(tf.bytes)/n, nil, "")
		res.add("dist.overlap_frac."+f, ratio(tf.hidden, tf.commTotal), nil, "hidden over total simulated comm")
		res.add("dist.sim_wait_frac."+f, ratio(tf.waitSum, tf.monitoredTime), nil, "monitor step total minus busy, over total")
	}
	famSteps := float64(r.rounds() * r.stepsPerRound())
	res.add("vit.step_self_ms", mean(selfs), selfs, "per family: step wall minus traced children, averaged")
	res.add("parallel.collect_ms", mean(collectMS), collectMS, "per CollectInto call, averaged over families")
	res.add("parallel.collect_sim_s", mean(collectSim), collectSim, "")
	res.add("tensor.ws_gets_per_step", float64(r.wsGets)/famSteps, nil, "all ranks of a family, per step")
	res.add("tensor.ws_misses_per_step", float64(r.wsMisses)/famSteps, nil, "all ranks of a family, per step")
	res.add("tensor.peak_rank_bytes", float64(r.peakBytes), nil, "largest per-rank workspace high water")
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func (r *trainRecord) parity(other record) error {
	t, ok := other.(*trainRecord)
	if !ok {
		return fmt.Errorf("parity against a %T", other)
	}
	for i, a := range r.set.fams {
		b := t.set.fams[i]
		if !bitsEqual(a.losses, b.losses) {
			return fmt.Errorf("%s: losses differ", a.name)
		}
		if !bitsEqual(a.stepSim, b.stepSim) || !bitsEqual(a.collectSim, b.collectSim) {
			return fmt.Errorf("%s: simulated clocks differ", a.name)
		}
		if !reflect.DeepEqual(r.stats[i], t.stats[i]) {
			return fmt.Errorf("%s: traffic statistics differ: %+v vs %+v", a.name, r.stats[i], t.stats[i])
		}
	}
	return nil
}

// bitsEqual compares two float sequences bit for bit.
func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

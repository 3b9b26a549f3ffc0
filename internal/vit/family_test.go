package vit

import (
	"math"
	"sync"
	"testing"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/plan"
	"repro/internal/tensor"
	"repro/internal/testutil"

	"repro/internal/megatron"
	"repro/internal/optimus"
	"repro/internal/seqpar"
	"repro/internal/tesseract"
)

// familyLayouts are the four schemes on comparable small arrangements.
func familyLayouts() []parallel.Layout {
	return []parallel.Layout{
		{Family: "tesseract", Q: 2, D: 2},
		{Family: "optimus", Q: 2},
		{Family: "megatron", Ranks: 4},
		{Family: "seqpar", Ranks: 4},
	}
}

// trainedParams trains two ViT steps under a layout on the fixed tinyData
// batch and returns rank 0's logits after both steps plus the final loss.
func trainLayoutSteps(t *testing.T, l parallel.Layout, steps int) (logits *tensor.Matrix, loss float64) {
	t.Helper()
	ds, mcfg := tinyData()
	tc := TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.003, WeightDecay: 0.05, Seed: 5}
	l, err := l.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	idx := []int{0, 1, 2, 3, 4, 5, 6, 7}
	x, labels := ds.Batch(ds.Train, idx)
	testutil.Run(t, l.Ranks, func(w *dist.Worker) error {
		f, err := parallel.New(w, l)
		if err != nil {
			return err
		}
		model := NewDistModel(f, mcfg)
		opt := nn.NewAdam(tc.LR, tc.WeightDecay)
		params := model.Params()
		for s := 0; s < steps; s++ {
			lg := model.Forward(DistributeBatch(f, x, mcfg.SeqLen))
			ls, dl := nn.CrossEntropy(lg, labels)
			if w.Rank() == 0 {
				loss = ls
				logits = lg.Clone()
			}
			for _, pa := range params {
				pa.ZeroGrad()
			}
			model.Backward(dl)
			opt.Step(params)
			f.EndStep()
		}
		return nil
	})
	return logits, loss
}

// TestCrossFamilyEquivalence trains two ViT steps under all four families
// on the same seed and data and requires each to agree with the serial
// reference logits within tolerance — the paper's interchangeability
// claim, end to end through one interface.
func TestCrossFamilyEquivalence(t *testing.T) {
	ds, mcfg := tinyData()
	tc := TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.003, WeightDecay: 0.05, Seed: 5}
	const steps = 2

	// Serial reference: the identical two steps.
	model := NewModel(mcfg)
	opt := nn.NewAdam(tc.LR, tc.WeightDecay)
	params := model.Params()
	x, labels := ds.Batch(ds.Train, []int{0, 1, 2, 3, 4, 5, 6, 7})
	var wantLogits *tensor.Matrix
	var wantLoss float64
	for s := 0; s < steps; s++ {
		lg := model.Forward(x)
		wantLoss, _ = nn.CrossEntropy(lg, labels)
		wantLogits = lg
		_, dl := nn.CrossEntropy(lg, labels)
		for _, pa := range params {
			pa.ZeroGrad()
		}
		model.Backward(dl)
		opt.Step(params)
	}

	for _, l := range familyLayouts() {
		logits, loss := trainLayoutSteps(t, l, steps)
		if logits == nil {
			t.Fatalf("%s: no logits collected", l)
		}
		if d := logits.MaxAbsDiff(wantLogits); d > 1e-8 || math.IsNaN(d) {
			t.Errorf("%s: step-%d logits diverged from serial by %g", l, steps, d)
		}
		if d := math.Abs(loss - wantLoss); d > 1e-8 {
			t.Errorf("%s: step-%d loss %g vs serial %g", l, steps, loss, wantLoss)
		}
	}
}

// TestOptimusBitwiseTesseractDepth1 pins the first-class d=1 delegation:
// an Optimus [2,2] training run and a Tesseract [2,2,1] training run are
// the same algorithm, so their logits must agree bitwise.
func TestOptimusBitwiseTesseractDepth1(t *testing.T) {
	opt, _ := trainLayoutSteps(t, parallel.Layout{Family: "optimus", Q: 2}, 2)
	tess, _ := trainLayoutSteps(t, parallel.Layout{Family: "tesseract", Q: 2, D: 1}, 2)
	if opt == nil || tess == nil {
		t.Fatal("missing logits")
	}
	if !opt.Equal(tess) {
		t.Fatalf("optimus [2,2] and tesseract [2,2,1] diverged bitwise: max|Δ| = %g", opt.MaxAbsDiff(tess))
	}
}

// TestSearchInstantiateTrain closes the plan→run gap for every family in
// one test: plan.Search ranks layouts for the tiny ViT workload, the best
// candidate of EACH family is instantiated via parallel.New on a
// matching cluster, and a ViT training step must run and match the serial
// forward loss.
func TestSearchInstantiateTrain(t *testing.T) {
	ds, mcfg := tinyData()
	tc := TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.003, WeightDecay: 0.05, Seed: 5}
	x, labels := ds.Batch(ds.Train, []int{0, 1, 2, 3, 4, 5, 6, 7})

	serial := NewModel(mcfg)
	wantLoss, _ := nn.CrossEntropy(serial.Forward(x), labels)

	algos := []plan.Algo{tesseract.PlanAlgo(), optimus.PlanAlgo(), megatron.PlanAlgo(), seqpar.PlanAlgo()}
	plans, err := plan.Search(mcfg.Workload(tc.BatchSize), plan.Topology{RankBudget: 8}, algos)
	if err != nil {
		t.Fatal(err)
	}

	// The best candidate per family, in rank order.
	best := map[string]plan.Plan{}
	for _, p := range plans {
		if _, seen := best[p.Family]; !seen {
			best[p.Family] = p
		}
	}
	if len(best) != 4 {
		t.Fatalf("search ranked %d families, want 4 (%v)", len(best), plans)
	}

	for fam, p := range best {
		losses := make([]float64, p.Grid.Ranks)
		c := dist.New(dist.Config{WorldSize: p.Grid.Ranks})
		err := c.Run(func(w *dist.Worker) error {
			f, err := parallel.New(w, p.Layout())
			if err != nil {
				return err
			}
			if f.Name() != fam {
				t.Errorf("plan %s instantiated family %q", p, f.Name())
			}
			model := NewDistModel(f, mcfg)
			params := model.Params()
			lg := model.Forward(DistributeBatch(f, x, mcfg.SeqLen))
			loss, dl := nn.CrossEntropy(lg, labels)
			losses[w.Rank()] = loss
			for _, pa := range params {
				pa.ZeroGrad()
			}
			model.Backward(dl)
			nn.NewAdam(tc.LR, tc.WeightDecay).Step(params)
			f.EndStep()
			return nil
		})
		if err != nil {
			t.Fatalf("plan %s: %v", p, err)
		}
		for r, loss := range losses {
			if d := math.Abs(loss - wantLoss); d > 1e-8 {
				t.Fatalf("plan %s rank %d: loss %g vs serial %g", p, r, loss, wantLoss)
			}
		}
	}
}

// peakWorkspaceBytes trains two steady-state steps under a layout and
// returns the largest per-rank workspace high-water mark — the peak live
// activation/scratch bytes any rank held.
func peakWorkspaceBytes(t *testing.T, l parallel.Layout) int64 {
	t.Helper()
	ds, mcfg := tinyData()
	tc := TrainConfig{Epochs: 1, BatchSize: 8, LR: 0.003, WeightDecay: 0.05, Seed: 5}
	sb, err := NewStepBencher(l, ds, mcfg, tc, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := sb.Steps(2); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var peak int64
	err = sb.Cluster().Run(func(w *dist.Worker) error {
		hw := w.Workspace().Stats().HighWaterBytes
		mu.Lock()
		if hw > peak {
			peak = hw
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return peak
}

// TestSeqparMemoryGate pins the family's reason to exist: at p = 4 a
// sequence-parallel rank's peak live workspace bytes across a training
// step must be at most half of a Megatron rank's, because the residual
// stream, layer norms and saved activations live on 1/p of the rows while
// gathered full-row buffers stay transient.
func TestSeqparMemoryGate(t *testing.T) {
	seq := peakWorkspaceBytes(t, parallel.Layout{Family: "seqpar", Ranks: 4})
	meg := peakWorkspaceBytes(t, parallel.Layout{Family: "megatron", Ranks: 4})
	if seq <= 0 || meg <= 0 {
		t.Fatalf("expected positive high-water marks, got seqpar=%d megatron=%d", seq, meg)
	}
	if ratio := float64(seq) / float64(meg); ratio > 0.5 {
		t.Fatalf("seqpar peak workspace %d B is %.3f of megatron's %d B, want <= 0.5", seq, ratio, meg)
	}
}

// TestSearchMemoryBudgetPrefersSeqpar pins the planner-level trade: on a
// paper-scale layer with the per-rank memory budget set to exactly what a
// sequence-parallel rank needs, every activation-replicating family is
// infeasible and the search must return seqpar plans alone.
func TestSearchMemoryBudgetPrefersSeqpar(t *testing.T) {
	w := plan.Workload{Batch: 16, SeqLen: 512, Hidden: 1024, Heads: 16, Layers: 2}
	sp := seqpar.PlanAlgo()
	budget := sp.Memory(w, plan.Grid{Ranks: 4})
	algos := []plan.Algo{tesseract.PlanAlgo(), optimus.PlanAlgo(), megatron.PlanAlgo(), sp}
	plans, err := plan.Search(w, plan.Topology{RankBudget: 4, ExactRanks: true, MemoryBudget: budget}, algos)
	if err != nil {
		t.Fatal(err)
	}
	if len(plans) == 0 {
		t.Fatal("no feasible plans under the seqpar memory budget")
	}
	for _, p := range plans {
		if p.Family != "seqpar" {
			t.Fatalf("family %s fit the seqpar budget %d: %v", p.Family, budget, p)
		}
	}
	if plans[0].Family != "seqpar" || plans[0].Grid.Ranks != 4 {
		t.Fatalf("top plan %v, want seqpar [4]", plans[0])
	}

	// Sanity: the same search without the budget keeps all four families,
	// and seqpar is never the fastest — its edge is memory, not time.
	unconstrained, err := plan.Search(w, plan.Topology{RankBudget: 4, ExactRanks: true}, algos)
	if err != nil {
		t.Fatal(err)
	}
	if unconstrained[0].Family == "seqpar" {
		t.Fatalf("seqpar won on time without a memory budget: %v", unconstrained[0])
	}
}

package plan_test

import (
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/plan"
)

func TestPlanLayout(t *testing.T) {
	for _, tc := range []struct {
		p    plan.Plan
		want parallel.Layout
	}{
		{plan.Plan{Family: "megatron", Grid: plan.Grid{Ranks: 16}},
			parallel.Layout{Family: "megatron", Ranks: 16}},
		{plan.Plan{Family: "optimus", Grid: plan.Grid{Ranks: 16, Q: 4, D: 1}},
			parallel.Layout{Family: "optimus", Q: 4, D: 1, Ranks: 16}},
		{plan.Plan{Family: "tesseract", Grid: plan.Grid{Ranks: 32, Q: 4, D: 2}},
			parallel.Layout{Family: "tesseract", Q: 4, D: 2, Ranks: 32}},
	} {
		if got := tc.p.Layout(); got != tc.want {
			t.Errorf("%s Layout = %+v, want %+v", tc.p, got, tc.want)
		}
		if _, err := tc.p.Layout().Normalize(); err != nil {
			t.Errorf("%s layout does not normalize: %v", tc.p, err)
		}
	}
}

// TestInstantiateEveryRankedFamily searches a small workload and
// instantiates the best candidate of each family on a matching simulated
// cluster: the family must come up with the plan's name, layout, and rank
// count, on every rank.
func TestInstantiateEveryRankedFamily(t *testing.T) {
	w := plan.Workload{Batch: 8, SeqLen: 4, Hidden: 16, Heads: 4}
	plans, err := plan.Search(w, plan.Topology{RankBudget: 8}, algos())
	if err != nil {
		t.Fatal(err)
	}
	best := map[string]plan.Plan{}
	for _, p := range plans {
		if _, seen := best[p.Family]; !seen {
			best[p.Family] = p
		}
	}
	if len(best) != 3 {
		t.Fatalf("expected all three families ranked, got %v", best)
	}
	for fam, p := range best {
		c := dist.New(dist.Config{WorldSize: p.Grid.Ranks})
		if err := c.Run(func(wk *dist.Worker) error {
			f, err := parallel.New(wk, p.Layout())
			if err != nil {
				return err
			}
			if f.Name() != fam {
				t.Errorf("plan %s instantiated %q", p, f.Name())
			}
			if f.Layout().Ranks != p.Grid.Ranks {
				t.Errorf("plan %s: family spans %d ranks, plan says %d", p, f.Layout().Ranks, p.Grid.Ranks)
			}
			if f.Worker() != wk {
				t.Errorf("plan %s: family bound to the wrong worker", p)
			}
			return nil
		}); err != nil {
			t.Fatalf("plan %s: %v", p, err)
		}
	}
}

func TestInstantiateUnknownFamily(t *testing.T) {
	c := dist.New(dist.Config{WorldSize: 1})
	if err := c.Run(func(w *dist.Worker) error {
		_, err := parallel.New(w, plan.Plan{Family: "cannon", Grid: plan.Grid{Ranks: 1}}.Layout())
		if err == nil || !strings.Contains(err.Error(), "cannon") {
			t.Errorf("unknown family error = %v", err)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

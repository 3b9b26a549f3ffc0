package vit

import (
	"errors"
	"fmt"

	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/plan"
)

// ErrSimulatedNodeLoss is the cause TrainElastic's injected failure carries;
// the recovery path asserts the abort reports it (not the generic poisoned-
// cluster message) before replanning.
var ErrSimulatedNodeLoss = errors.New("vit: simulated node loss")

// ElasticConfig controls a TrainElastic run: where the failure strikes and
// what the replanner may choose from.
type ElasticConfig struct {
	// FailStep is the training step during which a rank dies (≥ 1); the
	// checkpoint holds the state from just before it, so training resumes
	// at FailStep on the new layout.
	FailStep int
	// TotalSteps is the full run length, > FailStep.
	TotalSteps int
	// FailRank is the rank that dies; -1 (the default zero value is rank 0,
	// so use -1 explicitly for "last") picks the highest rank.
	FailRank int
	// Algos are the planner candidates Replan searches over.
	Algos []plan.Algo
	// Topology describes the machine for the replan; RankBudget is
	// overwritten with the surviving count.
	Topology plan.Topology
}

// ElasticRun is the outcome of one elastic training run: the two layouts,
// the structured failure, the full per-step loss curve (steps before
// FailStep trained at From, the rest at To), and the simulated-clock cost
// accounting the ElasticStudy turns into re-shard-vs-step ratios.
type ElasticRun struct {
	From, To parallel.Layout
	Failure  *dist.Failure

	FailStep int
	Losses   []float64

	// CollectSeconds is the simulated cost of snapshotting the model into
	// the replicated checkpoint at the From layout (per-slot all-reduces).
	CollectSeconds float64
	// RestoreSeconds is the simulated cost of re-sharding the checkpoint
	// onto the To layout (per-slot broadcasts over the new group).
	RestoreSeconds float64
	// StepSeconds is the steady-state training-step cost at the To layout,
	// averaged over the post-reshard steps.
	StepSeconds float64
}

// Trainable reports whether the ViT trainer can instantiate and train this
// model at the given layout: whole sequences per rank (batch divisibility)
// and widths that split over the mesh — the filter both the -plan CLI path
// and the elastic replan use to skip layouts the searcher likes but the
// model cannot run.
func Trainable(l parallel.Layout, batch int, mcfg ModelConfig) bool {
	return TrainableErr(l, batch, mcfg) == nil
}

// TrainableErr is Trainable with the reason: nil when the layout can train
// the model, otherwise one actionable error naming the dimension that does
// not divide — what the CLIs print instead of panicking deep inside model
// construction.
func TrainableErr(l parallel.Layout, batch int, mcfg ModelConfig) error {
	l, err := l.Normalize()
	if err != nil {
		return err
	}
	if batch%l.RowShards() != 0 {
		return fmt.Errorf("vit: batch %d not divisible by %s's %d row shards", batch, l, l.RowShards())
	}
	if l.Q > 0 {
		switch {
		case mcfg.PatchDim%l.Q != 0:
			return fmt.Errorf("vit: patch dim %d not divisible by %s's mesh side q=%d", mcfg.PatchDim, l, l.Q)
		case mcfg.Hidden%l.Q != 0:
			return fmt.Errorf("vit: hidden %d not divisible by %s's mesh side q=%d", mcfg.Hidden, l, l.Q)
		case mcfg.Heads%l.Q != 0:
			return fmt.Errorf("vit: %d heads not divisible by %s's mesh side q=%d", mcfg.Heads, l, l.Q)
		}
		return nil
	}
	// 1-D megatron: hidden width and heads split across every rank.
	switch {
	case mcfg.Hidden%l.Ranks != 0:
		return fmt.Errorf("vit: hidden %d not divisible by %s's %d ranks", mcfg.Hidden, l, l.Ranks)
	case mcfg.Heads%l.Ranks != 0:
		return fmt.Errorf("vit: %d heads not divisible by %s's %d ranks", mcfg.Heads, l, l.Ranks)
	}
	return nil
}

// TrainElastic is the full elastic loop on the simulated cluster: train at
// `from` until cfg.FailStep, checkpoint, inject a node loss, read the
// structured abort cause, replan under the surviving rank budget, recover a
// fresh cluster, re-shard the checkpoint onto the chosen layout, and finish
// training there. The returned loss curve matches an uninterrupted run at
// the surviving layout from the re-shard point (≤1e-8 — the family-parity
// property carried across the re-shard).
func TrainElastic(from parallel.Layout, cfg ElasticConfig, ds *Dataset, mcfg ModelConfig, tc TrainConfig) (*ElasticRun, error) {
	tc = tc.withDefaults()
	from, err := parallel.Validate(from)
	if err != nil {
		return nil, err
	}
	if cfg.FailStep < 1 || cfg.TotalSteps <= cfg.FailStep {
		return nil, fmt.Errorf("vit: elastic needs 1 ≤ FailStep (%d) < TotalSteps (%d)", cfg.FailStep, cfg.TotalSteps)
	}
	failRank := cfg.FailRank
	if failRank < 0 {
		failRank = from.Ranks - 1
	}
	if failRank >= from.Ranks {
		return nil, fmt.Errorf("vit: fail rank %d outside the %d-rank layout", failRank, from.Ranks)
	}
	if len(cfg.Algos) == 0 {
		return nil, fmt.Errorf("vit: elastic replan needs planner algos")
	}
	run := &ElasticRun{From: from, FailStep: cfg.FailStep, Losses: make([]float64, cfg.TotalSteps)}

	// Phase 1: train at the original layout until the failure step.
	c := dist.New(dist.Config{WorldSize: from.Ranks})
	reps, err := NewReplicas(c, from, ds, mcfg, tc)
	if err != nil {
		return nil, err
	}
	if err := reps.TrainSteps(cfg.FailStep, run.Losses, nil); err != nil {
		return nil, err
	}

	// Phase 2: checkpoint every rank (replicated snapshot), costing the
	// per-slot all-reduces on a fresh clock window.
	c.ResetClocks()
	cks, err := reps.Collect()
	if err != nil {
		return nil, err
	}
	run.CollectSeconds = c.MaxClock()

	// Phase 3: inject the node loss during step FailStep. The failing rank
	// dies; the survivors block in their next collective and are unwound by
	// the abort. The in-flight step's state is discarded — the checkpoint
	// from phase 2 is what survives.
	err = reps.Run(func(w *dist.Worker, rp *Replica) error {
		if w.Rank() == failRank {
			return fmt.Errorf("step %d: %w", cfg.FailStep, ErrSimulatedNodeLoss)
		}
		rp.trainStep(w, ds, tc, mcfg.SeqLen, cfg.FailStep, nil)
		return nil
	})
	if err == nil {
		return nil, fmt.Errorf("vit: injected node loss did not abort the cluster")
	}
	if !errors.Is(err, ErrSimulatedNodeLoss) {
		return nil, fmt.Errorf("vit: abort lost its cause: %w", err)
	}
	run.Failure = c.Failure()
	if run.Failure == nil || run.Failure.Rank != failRank {
		return nil, fmt.Errorf("vit: abort cause names the wrong rank: %+v", run.Failure)
	}

	// Phase 4: replan under the surviving rank budget.
	survivors := c.Survivors()
	best, err := plan.Replan(mcfg.Workload(tc.BatchSize), cfg.Topology, cfg.Algos, len(survivors), func(p plan.Plan) bool {
		return Trainable(p.Layout(), tc.BatchSize, mcfg)
	})
	if err != nil {
		// A *plan.NoFeasibleError passes through the %w wrap intact, so
		// callers can errors.As it and decide the cluster is simply lost
		// rather than treat the miss as a malfunction.
		return nil, fmt.Errorf("vit: elastic replan after losing rank %d: %w", failRank, err)
	}
	to, err := parallel.Validate(best.Layout())
	if err != nil {
		return nil, err
	}
	run.To = to

	// Phase 5: recover a fresh cluster over the survivors and re-shard the
	// checkpoint (held by any surviving rank — the replicas are identical)
	// onto the new layout; survivors beyond it sit idle.
	c2, err := c.Recover()
	if err != nil {
		return nil, err
	}
	reps, err = NewReplicas(c2, to, ds, mcfg, tc)
	if err != nil {
		return nil, err
	}
	c2.ResetClocks() // charge only the re-shard traffic to the restore window
	if err := reps.Reshard(cks[survivors[0]]); err != nil {
		return nil, err
	}
	run.RestoreSeconds = c2.MaxClock()

	// Phase 6: finish training at the new layout from the re-shard point.
	c2.ResetClocks()
	if err := reps.TrainSteps(cfg.TotalSteps-cfg.FailStep, run.Losses[cfg.FailStep:], nil); err != nil {
		return nil, err
	}
	run.StepSeconds = c2.MaxClock() / float64(cfg.TotalSteps-cfg.FailStep)
	return run, nil
}

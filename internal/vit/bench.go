package vit

import (
	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// StepBencher drives repeated training steps of the distributed ViT on one
// persistent cluster under any registered family, so benchmarks and leak
// tests can separate model construction and warm-up from the steady-state
// step they measure. Steps and StepsCheckpointed reuse one fixed batch;
// the embedded replica set's TrainSteps walks the trainer path.
type StepBencher struct {
	*Replicas

	x      *tensor.Matrix
	labels []int
}

// NewStepBencher builds the cluster, the per-rank models and optimisers, and
// runs warmup steps so pools, caches and optimiser state reach steady state.
func NewStepBencher(l parallel.Layout, ds *Dataset, mcfg ModelConfig, tc TrainConfig, warmup int) (*StepBencher, error) {
	l, err := parallel.Validate(l)
	if err != nil {
		return nil, err
	}
	reps, err := NewReplicas(dist.New(dist.Config{WorldSize: l.Ranks}), l, ds, mcfg, tc)
	if err != nil {
		return nil, err
	}
	if reps.trainErr != nil {
		return nil, reps.trainErr
	}
	sb := &StepBencher{Replicas: reps}
	idx := make([]int, reps.tc.BatchSize)
	for i := range idx {
		idx[i] = i % len(ds.Train)
	}
	sb.x, sb.labels = ds.Batch(ds.Train, idx)
	if warmup > 0 {
		if err := sb.Steps(warmup); err != nil {
			return nil, err
		}
	}
	return sb, nil
}

// Steps runs n full training steps (forward, loss, backward, optimiser
// update, workspace release) on every rank within a single cluster run.
func (sb *StepBencher) Steps(n int) error { return sb.StepsCheckpointed(n, nil) }

// EvalLogits runs the trainer's eval forward (evalDist's padded per-batch
// body) over the given test rows and returns a copy of the replicated
// logits for the real rows — what the trainer would classify these samples
// as, bit for bit.
func (sb *StepBencher) EvalLogits(idx []int) (*tensor.Matrix, error) {
	var out *tensor.Matrix
	err := sb.Run(func(w *dist.Worker, rp *Replica) error {
		logits := evalForward(rp.F, rp.Model, sb.ds, idx, sb.s)
		if w.Rank() == 0 {
			out = tensor.New(len(idx), logits.Cols)
			tensor.SubMatrixInto(out, logits, 0, 0)
		}
		rp.F.EndStep()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// StepsCheckpointed runs n training steps with, unless cks is nil, a
// checkpoint collected after every one — the elastic steady state the
// allocation tests and BenchmarkReshard measure. cks must have one
// (possibly nil) slot per rank; the checkpoints are built on first use and
// reused (and returned) so the steady state allocates nothing.
func (sb *StepBencher) StepsCheckpointed(n int, cks []*parallel.Checkpoint) error {
	return sb.Run(func(w *dist.Worker, rp *Replica) error {
		for i := 0; i < n; i++ {
			rp.step(w, sb.x, sb.labels, sb.s, nil)
			if cks == nil {
				continue
			}
			ck, err := parallel.CollectInto(cks[w.Rank()], rp.F, rp.Model, rp.opt)
			if err != nil {
				return err
			}
			cks[w.Rank()] = ck
		}
		return nil
	})
}

// SetPooling toggles workspace recycling on every rank — the switch the
// bitwise property tests use to compare the pooled path against the plain
// allocating path on identical models.
func (sb *StepBencher) SetPooling(enabled bool) error {
	return sb.Cluster().Run(func(w *dist.Worker) error {
		w.Workspace().SetPooling(enabled)
		return nil
	})
}

// WorkspaceStats snapshots every rank's pool counters, indexed by rank.
func (sb *StepBencher) WorkspaceStats() ([]tensor.WorkspaceStats, error) {
	out := make([]tensor.WorkspaceStats, sb.Cluster().WorldSize())
	err := sb.Cluster().Run(func(w *dist.Worker) error {
		out[w.Rank()] = w.Workspace().Stats()
		return nil
	})
	return out, err
}

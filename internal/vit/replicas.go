package vit

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Replica is one active rank's share of a Replicas set: its family
// instance, its shard of the model and the optimiser state for that shard.
type Replica struct {
	F     parallel.Family
	Model *DistModel

	opt    *nn.Adam
	params []*nn.Param
}

// Replicas is one distributed ViT laid out over a cluster: per active rank
// the family, the DistModel and its Adam optimiser, all drawn from
// ModelConfig.Seed so every replica set at any layout starts from the
// serial model's weights. It is the one construction every driver shares —
// the epoch and fault-riding trainers, the elastic and adaptive loops, the
// step bencher and the serving runtime. The caller owns the cluster, so
// fault plans, cost models and node sizes stay with the caller; ranks of a
// larger cluster beyond the layout (survivors a replan left unused) sit
// every run out.
type Replicas struct {
	c     *dist.Cluster
	ranks []Replica

	ds *Dataset
	tc TrainConfig // defaulted
	s  int

	// trainErr is why this set cannot take trainer-path steps (nil when it
	// can): a batch that does not divide the layout's row shards, or a
	// train split too small to fill one batch. Serving needs no training,
	// so only the step methods report it.
	trainErr error
	step     int // index of the next trainer-path step
}

// NewReplicas validates the layout against the model and builds the
// per-rank models and optimisers on c, whose world must cover the layout.
// The training configuration is validated here, once, with its defaults
// applied; an unusable one is reported by TrainSteps.
func NewReplicas(c *dist.Cluster, l parallel.Layout, ds *Dataset, mcfg ModelConfig, tc TrainConfig) (*Replicas, error) {
	l, err := parallel.Validate(l)
	if err != nil {
		return nil, err
	}
	if c.WorldSize() < l.Ranks {
		return nil, fmt.Errorf("vit: %s needs %d ranks, the cluster has %d", l, l.Ranks, c.WorldSize())
	}
	if err := TrainableErr(l, l.RowShards(), mcfg); err != nil {
		return nil, err
	}
	r := &Replicas{c: c, ranks: make([]Replica, l.Ranks), ds: ds, tc: tc.withDefaults(), s: mcfg.SeqLen}
	r.trainErr = TrainableErr(l, r.tc.BatchSize, mcfg)
	if r.trainErr == nil && len(ds.Train) < r.tc.BatchSize {
		r.trainErr = fmt.Errorf("vit: the train split's %d samples cannot fill one batch of %d (lower the batch or add samples)",
			len(ds.Train), r.tc.BatchSize)
	}
	err = r.Run(func(w *dist.Worker, rp *Replica) error {
		f, err := parallel.New(w, l)
		if err != nil {
			return err
		}
		rp.F = f
		rp.Model = NewDistModel(f, mcfg)
		rp.opt = nn.NewAdam(r.tc.LR, r.tc.WeightDecay)
		rp.params = rp.Model.Params()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Cluster returns the cluster the set runs on.
func (r *Replicas) Cluster() *dist.Cluster { return r.c }

// Run calls fn on every active rank, concurrently, with that rank's replica.
func (r *Replicas) Run(fn func(w *dist.Worker, rp *Replica) error) error {
	return r.c.Run(func(w *dist.Worker) error {
		if w.Rank() >= len(r.ranks) {
			return nil // surviving but idle: the layout uses fewer ranks
		}
		return fn(w, &r.ranks[w.Rank()])
	})
}

// TrainSteps advances every active rank n steps down the trainer path:
// epoch-shuffled batches at flat step indices that continue across calls
// (and from a resharded checkpoint's step), so however a run is split into
// calls, clusters and layouts it draws the batches an uninterrupted epoch
// loop would. When losses is non-nil it receives rank 0's loss per step;
// when correct is non-nil rank 0 adds its correct predictions to it.
func (r *Replicas) TrainSteps(n int, losses []float64, correct *int) error {
	if r.trainErr != nil {
		return r.trainErr
	}
	start := r.step
	err := r.Run(func(w *dist.Worker, rp *Replica) error {
		var count *int
		if w.Rank() == 0 {
			count = correct
		}
		for i := 0; i < n; i++ {
			loss := rp.trainStep(w, r.ds, r.tc, r.s, start+i, count)
			if w.Rank() == 0 && losses != nil {
				losses[i] = loss
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	r.step += n
	return nil
}

// Collect snapshots the model and optimiser state into the replicated
// checkpoint, one copy per active rank (indexed by rank; idle ranks nil).
func (r *Replicas) Collect() ([]*parallel.Checkpoint, error) {
	cks := make([]*parallel.Checkpoint, r.c.WorldSize())
	err := r.Run(func(w *dist.Worker, rp *Replica) error {
		ck, err := parallel.Collect(rp.F, rp.Model, rp.opt)
		cks[w.Rank()] = ck
		return err
	})
	return cks, err
}

// Reshard installs a checkpoint collected at any layout onto this set's
// layout, and resumes the trainer path at the checkpoint's step.
func (r *Replicas) Reshard(ck *parallel.Checkpoint) error {
	err := r.Run(func(w *dist.Worker, rp *Replica) error {
		return parallel.Reshard(rp.F, rp.Model, rp.opt, ck)
	})
	if err != nil {
		return err
	}
	r.step = ck.Step
	return nil
}

// stepBatch maps a flat global step index onto the epoch-shuffled sample
// window the epoch loop would use, so step-indexed and epoch-indexed runs
// see identical batches.
func stepBatch(ds *Dataset, tc TrainConfig, step int) []int {
	spe := len(ds.Train) / tc.BatchSize
	order := epochOrder(len(ds.Train), step/spe, tc.Seed)
	start := (step % spe) * tc.BatchSize
	return order[start : start+tc.BatchSize]
}

// trainStep runs trainer-path step `step` on this rank and returns its loss
// (replicated on every rank). The step is bracketed by Worker.BeginStep and
// EndStep, so the step index drives any installed fault plan and the
// (total, busy) split reaches an attached monitor; on a bare cluster the
// bracket is free and changes nothing.
func (rp *Replica) trainStep(w *dist.Worker, ds *Dataset, tc TrainConfig, s, step int, correct *int) float64 {
	w.BeginStep(step)
	defer w.EndStep()
	x, labels := ds.Batch(ds.Train, stepBatch(ds, tc, step))
	return rp.step(w, x, labels, s, correct)
}

// step is the one training step body: distribute the global batch x,
// forward, cross-entropy, zero-grad, backward, Adam, and the family's step
// boundary, which recycles every activation and scratch buffer. When
// correct is non-nil the batch's correct predictions are added to it,
// counted before the boundary releases the logits.
func (rp *Replica) step(w *dist.Worker, x *tensor.Matrix, labels []int, s int, correct *int) float64 {
	logits := rp.Model.Forward(DistributeBatch(rp.F, x, s))
	dl := w.Workspace().GetUninitMatch(logits.Rows, logits.Cols, logits.Phantom())
	loss := nn.CrossEntropyInto(dl, logits, labels)
	if correct != nil {
		*correct += nn.CorrectCount(logits, labels)
	}
	for _, pa := range rp.params {
		pa.ZeroGrad()
	}
	rp.Model.Backward(dl)
	rp.opt.Step(rp.params)
	rp.F.EndStep()
	return loss
}

// TrainStep is the exported trainer step, for callers that hold their own
// cluster and per-rank models: it advances one rank down the exact path
// Replicas.TrainSteps walks, so equally trained models are bitwise
// identical however they were driven.
func TrainStep(w *dist.Worker, f parallel.Family, model *DistModel, opt *nn.Adam,
	ds *Dataset, tc TrainConfig, s, step int) float64 {
	rp := Replica{F: f, Model: model, opt: opt, params: model.Params()}
	return rp.trainStep(w, ds, tc.withDefaults(), s, step, nil)
}

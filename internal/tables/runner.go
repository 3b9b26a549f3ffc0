package tables

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Options controls how the harness executes a row.
type Options struct {
	// SeqLen is the Transformer sequence length (default DefaultSeqLen).
	SeqLen int
	// Layers is the number of Transformer layers timed (default 1; the
	// paper reports per-layer-stack times whose absolute scale we do not
	// reproduce, only the relative shape).
	Layers int
	// Cost overrides the machine model (default dist.MeluxinaModel).
	Cost dist.CostModel
	// GPUsPerNode overrides the node size (default 4, as on Meluxina).
	GPUsPerNode int
	// Real executes with real random matrices instead of phantoms. Only
	// sensible for small hidden sizes (tests use it to validate the
	// phantom path).
	Real bool
	// NoRecompute disables activation checkpointing. By default the
	// backward pass re-runs the forward first (recompute), which is how
	// memory-constrained runs at the paper's sizes execute and which
	// matches the paper's uniform backward ≈ 3× forward ratio across all
	// twelve Table 1 rows.
	NoRecompute bool
	// Seed seeds parameter/data generation in Real mode.
	Seed uint64
}

func (o Options) withDefaults() Options {
	if o.SeqLen == 0 {
		o.SeqLen = DefaultSeqLen
	}
	if o.Layers == 0 {
		o.Layers = 1
	}
	if o.Cost.FLOPS == 0 {
		o.Cost = dist.MeluxinaModel()
	}
	if o.GPUsPerNode == 0 {
		o.GPUsPerNode = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// RunRow executes one table row on a fresh simulated cluster and returns the
// measured columns. The forward pass and backward pass are timed separately
// by resetting the simulated clocks in between, exactly mirroring the
// paper's forward-time/backward-time split.
func RunRow(row Row, opts Options) (Result, error) {
	opts = opts.withDefaults()
	// Phase 0 (untimed): construct the model and inputs.
	c, runners, err := newRunners(row, opts)
	if err != nil {
		return Result{}, err
	}

	// Phase 1: forward.
	c.ResetClocks()
	if err := c.Run(func(w *dist.Worker) error {
		runners[w.Rank()].forward()
		return nil
	}); err != nil {
		return Result{}, err
	}
	fwd := c.MaxClock()

	// Phase 2: backward (with activation recomputation unless disabled).
	c.ResetClocks()
	if err := c.Run(func(w *dist.Worker) error {
		if !opts.NoRecompute {
			runners[w.Rank()].forward()
		}
		runners[w.Rank()].backward()
		return nil
	}); err != nil {
		return Result{}, err
	}
	bwd := c.MaxClock()

	return newResult(row.Batch, fwd, bwd), nil
}

// LayoutForRow converts a table row into the runtime layout its scheme
// registers with the parallel package, validating the processor count.
func LayoutForRow(row Row) (parallel.Layout, error) {
	var l parallel.Layout
	switch row.Scheme {
	case Megatron:
		l = parallel.Layout{Family: "megatron", Ranks: row.GPUs}
	case SeqPar:
		l = parallel.Layout{Family: "seqpar", Ranks: row.GPUs}
	case Optimus:
		l = parallel.Layout{Family: "optimus", Q: row.Q}
	case Tesseract:
		l = parallel.Layout{Family: "tesseract", Q: row.Q, D: row.D}
	default:
		return l, fmt.Errorf("tables: unknown scheme %q", row.Scheme)
	}
	l, err := l.Normalize()
	if err != nil {
		return l, err
	}
	if l.Ranks != row.GPUs {
		return l, fmt.Errorf("tables: shape %s has %d processors, row says %d", row.Shape(), l.Ranks, row.GPUs)
	}
	return l, nil
}

// familyRunner drives a layer stack of any family through the timing
// scaffold: the schemes differ only in the parallel.Family they
// instantiate, which is the whole point of the interface.
type familyRunner struct {
	f      parallel.Family
	blocks []parallel.Layer
	x, dy  *tensor.Matrix
	out    []*tensor.Matrix
}

// newRunners builds every rank's layer stack and inputs for a row on a
// fresh cluster with the options' machine model.
func newRunners(row Row, opts Options) (*dist.Cluster, []*familyRunner, error) {
	c := dist.New(dist.Config{
		WorldSize:   row.GPUs,
		GPUsPerNode: opts.GPUsPerNode,
		Cost:        opts.Cost,
	})
	runners := make([]*familyRunner, row.GPUs)
	err := c.Run(func(w *dist.Worker) error {
		r, err := newRunner(row, opts, w)
		runners[w.Rank()] = r
		return err
	})
	return c, runners, err
}

func newRunner(row Row, opts Options, w *dist.Worker) (*familyRunner, error) {
	l, err := LayoutForRow(row)
	if err != nil {
		return nil, err
	}
	f, err := parallel.New(w, l)
	if err != nil {
		return nil, err
	}
	r := &familyRunner{f: f}
	for i := 0; i < opts.Layers; i++ {
		if opts.Real {
			r.blocks = append(r.blocks, f.NewBlock(row.Hidden, row.Heads, opts.SeqLen, tensor.NewRNG(opts.Seed+uint64(i))))
		} else {
			r.blocks = append(r.blocks, f.NewBlockPhantom(row.Hidden, row.Heads, opts.SeqLen))
		}
	}
	sl := f.Slice(row.Batch*opts.SeqLen, row.Hidden)
	if opts.Real {
		// Replicated activations (Megatron) must be identical on every
		// rank; split activations get independent per-rank blocks.
		seed := opts.Seed
		if sl.Rows != row.Batch*opts.SeqLen || sl.Cols != row.Hidden {
			seed += uint64(w.Rank())
		}
		r.x = tensor.RandomMatrix(sl.Rows, sl.Cols, tensor.NewRNG(seed+100))
		r.dy = tensor.RandomMatrix(sl.Rows, sl.Cols, tensor.NewRNG(seed+200))
	} else {
		r.x = tensor.NewPhantom(sl.Rows, sl.Cols)
		r.dy = tensor.NewPhantom(sl.Rows, sl.Cols)
	}
	return r, nil
}

func (r *familyRunner) forward() {
	x := r.x
	for _, b := range r.blocks {
		x = b.Forward(x)
	}
	r.out = append(r.out[:0], x)
}

func (r *familyRunner) backward() {
	dy := r.dy
	for i := len(r.blocks) - 1; i >= 0; i-- {
		dy = r.blocks[i].Backward(dy)
	}
	// Deferred gradient synchronisations (Tesseract's §3.1 depth
	// all-reduces) overlap the per-layer backward work; the row reports
	// the time with that overlap, so drain inside the timed phase.
	r.f.DrainGradients()
}

package serve

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/vit"
)

// Server runs a distributed ViT in inference mode on one persistent
// simulated cluster: requests index the dataset's test split (round-robin),
// the batcher coalesces them, and every forward slices a padded batch
// through the same vit.DistModel path the trainer evaluates with —
// workspace-pooled, so steady-state serving stays out of the allocator
// exactly like steady-state training.
type Server struct {
	cfg  Config
	l    parallel.Layout
	ds   *vit.Dataset
	mcfg vit.ModelConfig

	reps *vit.Replicas

	s, unit   int
	xbuf      []*tensor.Matrix // per-rank [maxPadded·s, patchDim] batch assembly buffer
	views     [][]*tensor.Matrix
	clk, clks []*tensor.Matrix // per-rank 1×1 clock block and [world,1] gather
	world     []*dist.Group    // per-rank cached world group (Group() allocates its key)
}

// NewServer validates the layout against the model, builds the cluster and
// the per-rank models (drawn from ModelConfig.Seed, so every rank and every
// independently built reference shard the same weights), and preallocates
// the serving buffers. tc configures TrainSteps.
func NewServer(l parallel.Layout, ds *vit.Dataset, mcfg vit.ModelConfig, tc vit.TrainConfig, cfg Config) (*Server, error) {
	cfg, err := cfg.WithDefaults()
	if err != nil {
		return nil, err
	}
	l, err = parallel.Validate(l)
	if err != nil {
		return nil, err
	}
	if len(ds.Test) == 0 {
		return nil, fmt.Errorf("serve: dataset has no test samples to serve")
	}
	world := l.Ranks
	c := dist.New(dist.Config{WorldSize: world})
	reps, err := vit.NewReplicas(c, l, ds, mcfg, tc)
	if err != nil {
		return nil, fmt.Errorf("serve: %s cannot run this model: %w", l, err)
	}
	unit := l.RowShards()
	s := &Server{
		cfg: cfg, l: l, ds: ds, mcfg: mcfg,
		reps:  reps,
		s:     mcfg.SeqLen,
		unit:  unit,
		xbuf:  make([]*tensor.Matrix, world),
		views: make([][]*tensor.Matrix, world),
		clk:   make([]*tensor.Matrix, world),
		clks:  make([]*tensor.Matrix, world),
		world: make([]*dist.Group, world),
	}
	maxPadded := (cfg.MaxBatch + unit - 1) / unit * unit
	err = c.Run(func(w *dist.Worker) error {
		r := w.Rank()
		s.xbuf[r] = tensor.New(maxPadded*s.s, mcfg.PatchDim)
		for k := 1; k <= maxPadded/unit; k++ {
			rows := k * unit * s.s
			s.views[r] = append(s.views[r], tensor.FromSlice(rows, mcfg.PatchDim, s.xbuf[r].Data[:rows*mcfg.PatchDim]))
		}
		s.clk[r] = tensor.New(1, 1)
		s.clks[r] = tensor.New(world, 1)
		s.world[r] = w.Cluster().WorldGroup()
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Layout returns the layout the server runs.
func (s *Server) Layout() parallel.Layout { return s.l }

// TrainSteps advances the model n steps down the trainer's exact step path
// (epoch-shuffled batches, step-indexed), so a served model is bitwise the
// model an equally trained trainer holds. A training configuration the
// layout cannot step is an error that leaves the server serving.
func (s *Server) TrainSteps(n int) error {
	if n <= 0 {
		return nil
	}
	return s.reps.TrainSteps(n, nil, nil)
}

// syncClock agrees on the current instant across the cluster: every rank
// contributes its simulated clock as data and takes the max locally, so all
// ranks compute the identical value. The gather itself is the batch's
// completion barrier and is charged to the clock like any collective.
func (s *Server) syncClock(w *dist.Worker) float64 {
	r := w.Rank()
	if s.l.Ranks == 1 {
		return w.Clock()
	}
	s.clk[r].Data[0] = w.Clock()
	s.world[r].AllGatherInto(w, s.clk[r], s.clks[r])
	var m float64
	for _, v := range s.clks[r].Data {
		if v > m {
			m = v
		}
	}
	return m
}

// Serve drains one arrival trace through the queue, the batcher and the
// model, and returns the full latency report. Request i is served the test
// sample i mod len(Test); ragged batches are padded up to the family's row
// divisibility unit by repeating the batch's first sample — exactly the
// trainer's eval-tail treatment — and padding rows are discarded.
func (s *Server) Serve(a ArrivalConfig) (*Report, error) {
	arrivals, err := a.Times()
	if err != nil {
		return nil, err
	}
	classes := make([]int, len(arrivals))
	var logits *tensor.Matrix
	if s.cfg.KeepLogits {
		logits = tensor.New(len(arrivals), s.mcfg.Classes)
	}
	var rep *Report
	// Fresh timing window: durations are differences of synced clocks, and
	// starting every trace at t=0 keeps them bit-identical across repeated
	// Serve calls (a large clock base would perturb the low-order bits).
	s.reps.Cluster().ResetClocks()
	err = s.reps.Run(func(w *dist.Worker, rp *vit.Replica) error {
		r := w.Rank()
		f, model := rp.F, rp.Model
		prev := s.syncClock(w)
		tr := runTrace(s.cfg, arrivals, func(ids []int) (int, float64) {
			padded := (len(ids) + s.unit - 1) / s.unit * s.unit
			x := s.views[r][padded/s.unit-1]
			for j := 0; j < padded; j++ {
				id := ids[0] // padding repeats the batch head's sample
				if j < len(ids) {
					id = ids[j]
				}
				x.SetSubMatrix(j*s.s, 0, s.ds.Test[id%len(s.ds.Test)].Patches)
			}
			out := model.Forward(vit.DistributeBatch(f, x, s.s))
			if r == 0 {
				for j, id := range ids {
					classes[id] = argmax(out.Row(j))
					if logits != nil {
						copy(logits.Row(id), out.Row(j))
					}
				}
			}
			f.EndStep()
			t := s.syncClock(w)
			dur := t - prev
			prev = t
			return padded, dur
		})
		if r == 0 {
			rep = tr.report()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for i := range rep.Requests {
		if !rep.Requests[i].Rejected {
			rep.Requests[i].Class = classes[i]
		}
	}
	rep.Logits = logits
	return rep, nil
}

func argmax(row []float64) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}

package seqpar

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/megatron"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

func init() {
	parallel.RegisterCheck("seqpar", func(l parallel.Layout) error {
		if l.Q != 0 {
			return fmt.Errorf("seqpar: 1-D family cannot take a mesh %s", l.Shape())
		}
		return nil
	})
	parallel.RegisterRowShards("seqpar", func(l parallel.Layout) int { return l.Ranks })
	parallel.Register("seqpar", func(w *dist.Worker, l parallel.Layout) (parallel.Family, error) {
		return &Family{Family: megatron.NewFamilyAt(w, l)}, nil
	})
}

// Family is sequence parallelism's implementation of the family-agnostic
// model layer: Megatron-LM's family in the sequence-parallel style, with
// activations sharded p ways along rows (whole sequences per rank).
// Distribute slices the rank's row block, Collect all-gathers it back, and
// the layer norms and residual adds of megatron's blocks run on 1/p of the
// rows, which is where the family's activation-memory edge over Megatron
// comes from.
type Family struct {
	*megatron.Family

	// pending are the replicated-weight gradient all-reduces the patch
	// embedding queues per backward pass, drained by DrainGradients.
	pending []gradSync
}

// Name returns "seqpar".
func (f *Family) Name() string { return "seqpar" }

// RowShards returns p: every rank owns 1/p of the activation rows.
func (f *Family) RowShards() int { return f.P }

// NewLinear builds the shard-local linear (the ViT patch embedding): the
// weight is replicated, the GEMM runs on the local rows, and the gradient
// all-reduce is deferred to DrainGradients.
func (f *Family) NewLinear(in, out int, act nn.Activation, bias bool, rng *tensor.RNG) parallel.Layer {
	lin := parallel.NewReplicatedLinearAt(f.W, f.Layout().Base, in, out, act, bias, rng)
	return &shardLinear{ReplicatedLinear: lin, f: f}
}

// Distribute slices this rank's row block out of the replicated global
// activation into a pooled buffer.
func (f *Family) Distribute(global *tensor.Matrix) *tensor.Matrix {
	if global.Rows%f.P != 0 {
		panic(fmt.Sprintf("seqpar: cannot distribute %d rows across p=%d", global.Rows, f.P))
	}
	br := global.Rows / f.P
	local := f.W.Workspace().GetUninitMatch(br, global.Cols, global.Phantom())
	tensor.SubMatrixInto(local, global, f.Rank*br, 0)
	return local
}

// Collect all-gathers the row shards into the full replicated activation
// on every rank. The local shard stays checked out by its owner.
func (f *Family) Collect(local *tensor.Matrix) *tensor.Matrix { return f.Gather(local) }

// Slice reports this rank's row block of a replicated [rows, cols]
// activation.
func (f *Family) Slice(rows, cols int) parallel.Slice {
	if rows%f.P != 0 {
		panic(fmt.Sprintf("seqpar: cannot slice %d rows across p=%d", rows, f.P))
	}
	br := rows / f.P
	return parallel.Slice{Row0: f.Rank * br, Rows: br, Cols: cols}
}

// GatherPooled all-gathers a row-pooled local block into the full
// replicated matrix and recycles the local buffer, whose ownership the
// contract transfers here.
func (f *Family) GatherPooled(local *tensor.Matrix) *tensor.Matrix {
	full := f.Gather(local)
	f.W.Workspace().Put(local)
	return full
}

// DrainGradients completes the patch embedding's queued replicated-weight
// gradient all-reduces; afterwards gradients are final on every rank.
func (f *Family) DrainGradients() {
	ws := f.W.Workspace()
	for i := range f.pending {
		s := &f.pending[i]
		s.h.Wait()
		s.param.AccumGrad(s.buf)
		ws.Put(s.buf)
		*s = gradSync{}
	}
	f.pending = f.pending[:0]
}

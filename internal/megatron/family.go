package megatron

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

func init() {
	parallel.RegisterCheck("megatron", func(l parallel.Layout) error {
		if l.Q != 0 {
			return fmt.Errorf("megatron: 1-D family cannot take a mesh %s", l.Shape())
		}
		return nil
	})
	parallel.Register("megatron", func(w *dist.Worker, l parallel.Layout) (parallel.Family, error) {
		return NewFamilyAt(w, l), nil
	})
}

// Family is Megatron-LM's implementation of the family-agnostic model
// layer: activations fully replicated on every rank (the memory cost Eq. 9
// charges it with), weights split 1-D across the tensor-parallel group.
// Distribute, Collect, Slice and GatherPooled are therefore identities —
// replication is this family's distribution — and the Transformer block is
// the shared parallel.Block composition over this package's column/row
// linears and attention, with parallel.ReplicatedLayerNorm for the
// un-sharded layer norms. internal/seqpar embeds it, overriding only how
// activations are distributed; its blocks come from here in the
// sequence-parallel style.
type Family struct {
	*Proc
	layout parallel.Layout
}

// NewFamilyAt attaches the calling worker to the tensor-parallel group
// spanning cluster ranks [l.Base, l.Base+l.Ranks). The layout's family
// name selects the layer style: "seqpar" runs the sequence-parallel
// brackets and memory policy, any other name Megatron-LM's.
func NewFamilyAt(w *dist.Worker, l parallel.Layout) *Family {
	return &Family{Proc: newProc(w, l), layout: l}
}

// Name returns "megatron".
func (f *Family) Name() string { return "megatron" }

// Layout returns the 1-D layout.
func (f *Family) Layout() parallel.Layout { return f.layout }

// Worker returns the rank's cluster view.
func (f *Family) Worker() *dist.Worker { return f.W }

// RowShards returns 1: activations are replicated, never row-split.
func (f *Family) RowShards() int { return 1 }

// NewLinear builds the replicated serial linear: Megatron keeps
// activations replicated, so a model-level linear that must map a
// replicated input to a replicated output (the ViT patch embedding) is
// computed redundantly on every rank, exactly like the classifier head.
func (f *Family) NewLinear(in, out int, act nn.Activation, bias bool, rng *tensor.RNG) parallel.Layer {
	return parallel.NewReplicatedLinearAt(f.W, f.layout.Base, in, out, act, bias, rng)
}

// NewBlock builds one Transformer block in the family's style via the
// shared composition, drawing parameters from rng in the serial order
// (attention Wq..Wo, then MLP Fc1, Fc2).
func (f *Family) NewBlock(h, heads, seqLen int, rng *tensor.RNG) parallel.Layer {
	attn := NewAttention(f.Proc, h, heads, seqLen, rng)
	return f.newBlock(h, attn, newMLP(f.Proc, h, rng))
}

// NewBlockPhantom builds the shape-only block for paper-scale timing.
func (f *Family) NewBlockPhantom(h, heads, seqLen int) parallel.Layer {
	attn := NewAttentionPhantom(f.Proc, h, heads, seqLen)
	return f.newBlock(h, attn, newMLPPhantom(f.Proc, h))
}

func (f *Family) newBlock(h int, attn, mlp procModule) parallel.Layer {
	return parallel.NewBlock(f.W, h, bound{f.Proc, attn}, f.NewLayerNorm(h), bound{f.Proc, mlp}, f.NewLayerNorm(h))
}

// NewLayerNorm builds the replicated layer norm — row-local arithmetic, so
// on row-sharded activations it simply normalises the local rows.
func (f *Family) NewLayerNorm(h int) parallel.Layer {
	return parallel.NewReplicatedLayerNorm(f.W, h)
}

// NewHead builds the replicated classifier head; the group base rank is its
// checkpoint primary.
func (f *Family) NewHead(in, out int, rng *tensor.RNG) parallel.Layer {
	return parallel.NewReplicatedLinearAt(f.W, f.layout.Base, in, out, nn.ActNone, true, rng)
}

// Distribute is the identity: every rank holds the full activation.
func (f *Family) Distribute(global *tensor.Matrix) *tensor.Matrix { return global }

// Collect is the identity: activations are already replicated.
func (f *Family) Collect(local *tensor.Matrix) *tensor.Matrix { return local }

// Slice reports the whole matrix: this rank holds all of it.
func (f *Family) Slice(rows, cols int) parallel.Slice {
	return parallel.Slice{Rows: rows, Cols: cols}
}

// GatherPooled is the identity: pooling a replicated activation yields the
// full replicated result on every rank.
func (f *Family) GatherPooled(local *tensor.Matrix) *tensor.Matrix { return local }

// DrainGradients is a no-op: the column/row-parallel linears synchronise
// activations in-line and their weight-shard gradients are rank-local.
func (f *Family) DrainGradients() {}

// EndStep recycles the rank's workspace at the step boundary.
func (f *Family) EndStep() { f.W.Workspace().ReleaseAll() }

// procModule is the method shape every sub-layer in this package shares:
// forward/backward over the group view plus the owned parameter shards.
type procModule interface {
	Forward(p *Proc, x *tensor.Matrix) *tensor.Matrix
	Backward(p *Proc, dy *tensor.Matrix) *tensor.Matrix
	Params() []*nn.Param
	State(p *Proc) []parallel.State
}

// bound binds a sub-layer to its group view, adapting it to parallel.Layer.
type bound struct {
	p *Proc
	m procModule
}

func (b bound) Forward(x *tensor.Matrix) *tensor.Matrix   { return b.m.Forward(b.p, x) }
func (b bound) Backward(dy *tensor.Matrix) *tensor.Matrix { return b.m.Backward(b.p, dy) }
func (b bound) Params() []*nn.Param                       { return b.m.Params() }
func (b bound) State() []parallel.State                   { return b.m.State(b.p) }

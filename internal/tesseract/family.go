package tesseract

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/mesh"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

func init() {
	parallel.RegisterCheck("tesseract", func(l parallel.Layout) error {
		if l.Q < 1 {
			return fmt.Errorf("tesseract: layout %s needs a mesh dimension q", l)
		}
		return mesh.Shape{Q: l.Q, D: l.D, Base: l.Base}.Validate()
	})
	parallel.Register("tesseract", func(w *dist.Worker, l parallel.Layout) (parallel.Family, error) {
		return &Family{p: NewProcAt(w, mesh.Shape{Q: l.Q, D: l.D, Base: l.Base}), layout: l}, nil
	})
}

// Family is Tesseract's implementation of the family-agnostic model layer:
// A-distributed activations, B-distributed weights, SUMMA linears and the
// queued §3.1 depth gradient synchronisation, behind parallel.Family.
type Family struct {
	p      *Proc
	layout parallel.Layout
}

// NewFamilyAt attaches the calling worker to an arbitrary mesh shape —
// used when composing with data or pipeline parallelism and by the Optimus
// depth-1 delegation.
func NewFamilyAt(w *dist.Worker, s mesh.Shape) *Family {
	return &Family{
		p:      NewProcAt(w, s),
		layout: parallel.Layout{Family: "tesseract", Q: s.Q, D: s.D, Ranks: s.Size(), Base: s.Base},
	}
}

// Name returns "tesseract".
func (f *Family) Name() string { return "tesseract" }

// Layout returns the mesh layout.
func (f *Family) Layout() parallel.Layout { return f.layout }

// Worker returns the rank's cluster view.
func (f *Family) Worker() *dist.Worker { return f.p.W }

// RowShards returns d·q: activation rows split across the depth layers and
// grid rows.
func (f *Family) RowShards() int { return f.p.Shape.Q * f.p.Shape.D }

// NewLinear builds a Tesseract-parallel linear layer.
func (f *Family) NewLinear(in, out int, act nn.Activation, bias bool, rng *tensor.RNG) parallel.Layer {
	return bound{p: f.p, m: NewLinear(f.p, in, out, act, bias, rng)}
}

// NewBlock builds one Tesseract-parallel Transformer block.
func (f *Family) NewBlock(h, heads, seqLen int, rng *tensor.RNG) parallel.Layer {
	return &BlockLayer{bound{p: f.p, m: NewBlock(f.p, h, heads, seqLen, rng)}}
}

// NewBlockPhantom builds the shape-only block for paper-scale timing.
func (f *Family) NewBlockPhantom(h, heads, seqLen int) parallel.Layer {
	return &BlockLayer{bound{p: f.p, m: NewBlockPhantom(f.p, h, heads, seqLen)}}
}

// NewLayerNorm builds the distributed layer norm of §3.2.2.
func (f *Family) NewLayerNorm(h int) parallel.Layer {
	return bound{p: f.p, m: NewLayerNorm(f.p, h)}
}

// NewHead builds the replicated classifier head; the mesh base rank is its
// checkpoint primary.
func (f *Family) NewHead(in, out int, rng *tensor.RNG) parallel.Layer {
	return parallel.NewReplicatedLinearAt(f.p.W, f.p.Shape.Base, in, out, nn.ActNone, true, rng)
}

// Distribute slices a replicated global activation into this rank's A
// block (Figure 4a).
func (f *Family) Distribute(global *tensor.Matrix) *tensor.Matrix {
	br, bc := f.p.ABlockShape(global.Rows, global.Cols)
	local := f.p.W.Workspace().GetUninitMatch(br, bc, global.Phantom())
	tensor.SubMatrixInto(local, global, f.p.BlockRow()*br, f.p.J*bc)
	return local
}

// Collect reassembles an A-distributed activation on every rank, out of
// pooled buffers: hidden columns gather along the grid row, sequence blocks
// along the slab, mirroring GatherPooled but leaving ownership of local
// with the caller (it is a saved activation, not a transient). The returned
// matrix is a workspace buffer that lives until the step boundary.
func (f *Family) Collect(local *tensor.Matrix) *tensor.Matrix {
	p, ws := f.p, f.p.W.Workspace()
	wide := ws.GetUninitMatch(local.Rows, p.Row.Size()*local.Cols, local.Phantom())
	p.Row.AllGatherInto(p.W, local, wide)
	full := ws.GetUninitMatch(p.Slab.Size()*wide.Rows, wide.Cols, wide.Phantom())
	p.Slab.AllGatherInto(p.W, wide, full)
	ws.Put(wide)
	return full
}

// Slice reports the rank's share of a replicated [rows, cols] activation:
// block row h = i + k·q of the d·q row partitions, grid column j of the q
// column partitions.
func (f *Family) Slice(rows, cols int) parallel.Slice {
	r, c := f.p.ABlockShape(rows, cols)
	return parallel.Slice{Row0: f.p.BlockRow() * r, Col0: f.p.J * c, Rows: r, Cols: c}
}

// GatherPooled all-gathers a row-pooled local block into the replicated
// full matrix: hidden columns along the grid row, sequence blocks along
// the slab. AllGatherInto reads every member's block before returning (no
// snapshots), so the intermediates recycle immediately.
func (f *Family) GatherPooled(local *tensor.Matrix) *tensor.Matrix {
	p, ws := f.p, f.p.W.Workspace()
	wide := ws.GetUninitMatch(local.Rows, p.Row.Size()*local.Cols, local.Phantom())
	p.Row.AllGatherInto(p.W, local, wide)
	ws.Put(local)
	full := ws.GetUninitMatch(p.Slab.Size()*wide.Rows, wide.Cols, wide.Phantom())
	p.Slab.AllGatherInto(p.W, wide, full)
	ws.Put(wide)
	return full
}

// DrainGradients completes the queued §3.1 depth all-reduces.
func (f *Family) DrainGradients() { f.p.DrainGradients() }

// EndStep recycles the rank's workspace at the step boundary.
func (f *Family) EndStep() { f.p.W.Workspace().ReleaseAll() }

// procModule is the method shape every layer in this package shares:
// forward/backward over the mesh view plus the owned parameter shards.
type procModule interface {
	Forward(p *Proc, x *tensor.Matrix) *tensor.Matrix
	Backward(p *Proc, dy *tensor.Matrix) *tensor.Matrix
	Params() []*nn.Param
	State(p *Proc) []parallel.State
}

// bound binds a layer to its mesh view, adapting it to parallel.Layer.
type bound struct {
	p *Proc
	m procModule
}

func (b bound) Forward(x *tensor.Matrix) *tensor.Matrix   { return b.m.Forward(b.p, x) }
func (b bound) Backward(dy *tensor.Matrix) *tensor.Matrix { return b.m.Backward(b.p, dy) }
func (b bound) Params() []*nn.Param                       { return b.m.Params() }
func (b bound) State() []parallel.State                   { return b.m.State(b.p) }

// BlockLayer is the bound Block, kept as a named type so
// Tesseract-specific callers (tests) can reach the underlying struct.
type BlockLayer struct {
	bound
}

// Block returns the underlying Tesseract block.
func (a *BlockLayer) Block() *Block { return a.m.(*Block) }

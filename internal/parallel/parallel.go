// Package parallel defines the family-agnostic model layer: one Family
// interface that every tensor-parallel scheme in this repository —
// Tesseract [q, q, d], Optimus [q, q] and Megatron-LM [p] — implements, so
// models, trainers, the experiment harness and the auto-parallelism planner
// are written once against the interface instead of once per scheme.
//
// The paper's point is that the three schemes are interchangeable layouts
// of the same Transformer math; this package is that point as an API. A
// Family knows how its activations are laid out (Distribute, Collect,
// Slice, GatherPooled), how to build the distributed layers that operate on
// that layout (NewLinear, NewBlock, NewLayerNorm, NewHead), and how a
// training step finishes (DrainGradients, EndStep). Everything above —
// vit.DistModel, the trainers, the serving runtime, the tables runners —
// only ever sees these contracts, which is what lets New turn a searched
// layout (plan.Plan.Layout) directly into a trainable model.
//
// # Layer contract
//
// A Layer's Forward may retain its input and its output for the backward
// pass (saved activations); callers must not mutate or recycle a matrix
// that crossed a Forward API before the step boundary. Backward never
// retains its input: the caller may recycle dy as soon as Backward
// returns. A Layer whose Backward draws its result from the worker's
// workspace (every Block composed by this package does) hands ownership of
// that buffer to the caller.
//
// # Grad-sync ordering
//
// Backward passes may defer parameter-gradient synchronisation (Tesseract
// queues its §3.1 depth all-reduces per layer and lets them fly behind the
// remaining backward work). Gradients are only final after
// Family.DrainGradients returns; trainers must drain after the full
// backward pass and before the optimiser reads any gradient. Drain is
// idempotent and free for families that synchronise eagerly.
//
// # EndStep
//
// EndStep marks a training-step boundary: after the optimiser update (or
// after an evaluation forward whose outputs were consumed), every rank
// calls EndStep to recycle its workspace, after which every buffer the
// step drew from it is dead. EndStep needs no barrier: every cross-worker
// read of a rank's buffers completes inside the collective that made it
// (a nonblocking one once its handle is waited; DrainGradients waits the
// deferred gradient syncs), so once a rank reaches EndStep no other rank
// still reads its memory.
// Every rank calls it at the same program point.
package parallel

import (
	"repro/internal/dist"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// Layer is one distributed module bound to its processor view: the
// forward/backward contract every composition in this repository uses.
type Layer interface {
	// Forward maps the family-distributed input to the family-distributed
	// output, retaining whatever the backward pass needs.
	Forward(x *tensor.Matrix) *tensor.Matrix
	// Backward accumulates parameter gradients and returns the input
	// gradient. It never retains dy.
	Backward(dy *tensor.Matrix) *tensor.Matrix
	// Params returns the parameter shards this rank owns, in a
	// deterministic order identical on every rank.
	Params() []*nn.Param
	// State enumerates the layer's canonical checkpoint slots — every rank
	// returns the same ordered list of global shapes; each entry maps the
	// rank's local shard (if any) into the canonical serial tensor. See
	// Stater. Parameter-free layers return nil.
	State() []State
}

// Slice is one rank's share of a replicated [Rows·shards, Cols·shards]
// matrix: the submatrix starting at (Row0, Col0). Families that replicate
// activations return the whole matrix (Row0 = Col0 = 0).
type Slice struct {
	Row0, Col0 int
	Rows, Cols int
}

// Family is one tensor-parallel scheme's model layer: layout, layers and
// step hooks. Implementations register a constructor with Register so
// layouts (and planner candidates, via plan.Plan.Layout) can be turned into
// families by name.
type Family interface {
	// Name returns the registered family name ("tesseract", "optimus",
	// "megatron").
	Name() string
	// Layout returns the normalized layout the family was built from.
	Layout() Layout
	// Worker returns the calling rank's view of the simulated cluster.
	Worker() *dist.Worker
	// RowShards returns how many ways activation rows are partitioned:
	// d·q for Tesseract, q for Optimus, 1 for Megatron's replicated
	// activations. Batches must contain a multiple of RowShards sequences.
	RowShards() int

	// NewLinear builds the family's fully connected layer (the ViT patch
	// embedding); input and output are family-distributed activations.
	// The full weight is drawn from rng in the serial order, so families
	// shard the identical serial parameters.
	NewLinear(in, out int, act nn.Activation, bias bool, rng *tensor.RNG) Layer
	// NewBlock builds one Transformer block (attention, MLP, residuals,
	// layer norms), drawing parameters from rng in the serial order.
	NewBlock(h, heads, seqLen int, rng *tensor.RNG) Layer
	// NewBlockPhantom builds the shape-only block for paper-scale timing.
	NewBlockPhantom(h, heads, seqLen int) Layer
	// NewLayerNorm builds the family's layer normalisation over hidden
	// width h.
	NewLayerNorm(h int) Layer
	// NewHead builds the classifier head: a replicated serial linear
	// computed redundantly on every rank from replicated features — the
	// standard treatment for heads whose cost is negligible.
	NewHead(in, out int, rng *tensor.RNG) Layer

	// Distribute slices a replicated global activation into this rank's
	// block (the identity for families that replicate activations).
	Distribute(global *tensor.Matrix) *tensor.Matrix
	// Collect reassembles a family-distributed activation on every rank.
	Collect(local *tensor.Matrix) *tensor.Matrix
	// Slice reports which part of a replicated [rows, cols] activation
	// this rank holds, for slicing replicated per-row data (positional
	// encodings, pooled-feature gradients) down to the local block.
	Slice(rows, cols int) Slice
	// GatherPooled all-gathers a row-pooled local block into the full
	// replicated matrix on every rank. Ownership of local (a workspace
	// buffer) transfers to the family; the returned matrix is
	// caller-owned until the step boundary. Families whose activations
	// are already replicated return local unchanged.
	GatherPooled(local *tensor.Matrix) *tensor.Matrix

	// DrainGradients completes every deferred parameter-gradient
	// synchronisation; afterwards gradients are final and the optimiser
	// may step.
	DrainGradients()
	// EndStep recycles this rank's workspace at a training-step boundary.
	EndStep()
}

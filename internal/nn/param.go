// Package nn is the serial reference implementation of every layer the
// distributed schemes parallelise: linear, layer normalisation, multi-head
// attention, the Transformer MLP and block, plus losses and optimisers.
// All distributed packages (tesseract, megatron, optimus) are tested for
// numerical agreement against this package, and the optimisers here are
// reused by the distributed trainers (they act elementwise on local shards,
// so the same code drives both worlds).
package nn

import (
	"math"

	"repro/internal/tensor"
)

// Param is one trainable tensor together with its gradient accumulator.
type Param struct {
	Name  string
	Value *tensor.Matrix
	Grad  *tensor.Matrix
}

// NewParam wraps a value matrix with a zeroed gradient of the same shape.
func NewParam(name string, value *tensor.Matrix) *Param {
	var grad *tensor.Matrix
	if value.Phantom() {
		grad = tensor.NewPhantom(value.Rows, value.Cols)
	} else {
		grad = tensor.New(value.Rows, value.Cols)
	}
	return &Param{Name: name, Value: value, Grad: grad}
}

// ZeroGrad clears the gradient accumulator.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// AccumGrad adds g into the gradient accumulator.
func (p *Param) AccumGrad(g *tensor.Matrix) { tensor.AddInPlace(p.Grad, g) }

// SGD is plain stochastic gradient descent with optional weight decay.
type SGD struct {
	LR          float64
	WeightDecay float64
}

// Step applies v ← v − lr·(g + wd·v) to every parameter.
func (s *SGD) Step(params []*Param) {
	for _, p := range params {
		if p.Value.Phantom() {
			continue
		}
		for i, g := range p.Grad.Data {
			p.Value.Data[i] -= s.LR * (g + s.WeightDecay*p.Value.Data[i])
		}
	}
}

// Adam implements the Adam optimiser with decoupled weight decay (AdamW),
// the configuration the paper's ViT experiment uses (lr 0.003, weight decay
// 0.3). State is keyed by parameter identity in call order, so serial and
// distributed trainers that register parameters in the same order evolve
// identically.
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	t     int
	m, v  map[*Param]*tensor.Matrix
	ready bool

	// Moment slices aligned with the last params slice seen, so the steady
	// path (trainers pass the identical slice every step) does one pointer
	// compare per parameter instead of two map lookups.
	cachedParams []*Param
	cachedM      []*tensor.Matrix
	cachedV      []*tensor.Matrix
}

// NewAdam returns an Adam optimiser with the usual defaults for unset
// moments (β1=0.9, β2=0.999, ε=1e-8).
func NewAdam(lr, weightDecay float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, WeightDecay: weightDecay}
}

// Step applies one Adam update to every parameter.
func (a *Adam) Step(params []*Param) {
	if !a.ready {
		a.m = make(map[*Param]*tensor.Matrix)
		a.v = make(map[*Param]*tensor.Matrix)
		a.ready = true
	}
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	if !a.cacheMatches(params) {
		a.rebuildCache(params)
	}
	for i, p := range params {
		if p.Value.Phantom() {
			continue
		}
		// The vectorised kernel performs exactly the scalar update sequence
		// per element (see tensor.AdamUpdate) — trajectories are unchanged.
		tensor.AdamUpdate(p.Value, p.Grad, a.cachedM[i], a.cachedV[i], a.LR, a.Beta1, a.Beta2, a.Eps, a.WeightDecay, bc1, bc2)
	}
}

// StepCount returns the number of Adam steps taken so far — the clock the
// bias corrections run on. Checkpoints record it so a restored optimiser
// resumes with the same corrections.
func (a *Adam) StepCount() int { return a.t }

// SetStepCount rewinds or advances the bias-correction clock, as when
// restoring optimiser state from a checkpoint.
func (a *Adam) SetStepCount(t int) {
	a.t = t
	a.cachedParams = nil
}

// Moments returns the first and second moment accumulators for p, or nils
// if p has never been stepped (or is phantom).
func (a *Adam) Moments(p *Param) (m, v *tensor.Matrix) {
	if !a.ready {
		return nil, nil
	}
	return a.m[p], a.v[p]
}

// SetMoments installs moment accumulators for p, replacing any existing
// state. A nil m or v leaves that moment untouched (so the two can be
// installed in separate calls). Used when restoring from a checkpoint; the
// matrices are adopted, not copied.
func (a *Adam) SetMoments(p *Param, m, v *tensor.Matrix) {
	if !a.ready {
		a.m = make(map[*Param]*tensor.Matrix)
		a.v = make(map[*Param]*tensor.Matrix)
		a.ready = true
	}
	if m != nil {
		a.m[p] = m
	}
	if v != nil {
		a.v[p] = v
	}
	a.cachedParams = nil
}

// cacheMatches reports whether the moment cache is aligned with params —
// same parameters, same order.
func (a *Adam) cacheMatches(params []*Param) bool {
	if len(params) != len(a.cachedParams) {
		return false
	}
	for i, p := range params {
		if a.cachedParams[i] != p {
			return false
		}
	}
	return true
}

// rebuildCache realigns the moment slices with params, creating state for
// parameters seen for the first time. The maps stay authoritative, so a
// parameter's moments survive reordering or regrouping across calls.
func (a *Adam) rebuildCache(params []*Param) {
	a.cachedParams = append(a.cachedParams[:0], params...)
	a.cachedM = a.cachedM[:0]
	a.cachedV = a.cachedV[:0]
	for _, p := range params {
		if p.Value.Phantom() {
			a.cachedM = append(a.cachedM, nil)
			a.cachedV = append(a.cachedV, nil)
			continue
		}
		m, ok := a.m[p]
		if !ok {
			m = tensor.New(p.Value.Rows, p.Value.Cols)
			a.m[p] = m
		}
		v, ok := a.v[p]
		if !ok {
			v = tensor.New(p.Value.Rows, p.Value.Cols)
			a.v[p] = v
		}
		a.cachedM = append(a.cachedM, m)
		a.cachedV = append(a.cachedV, v)
	}
}

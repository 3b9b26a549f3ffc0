package compute

import (
	"fmt"
	"math"

	"repro/internal/dist"
	"repro/internal/tensor"
)

// FuseQKV packs Wq, Wk, Wv (each [h, h]) into the head-aligned fused QKV
// weight [h, 3h] shared by every tensor-parallel family: column block j of
// `parts` holds [Wq_j | Wk_j | Wv_j], so a processor owning block j computes
// its heads' Q, K and V side by side and SplitQKV separates them locally.
func FuseQKV(wq, wk, wv *tensor.Matrix, parts int) *tensor.Matrix {
	h := wq.Rows
	bc := wq.Cols / parts
	cols := make([]*tensor.Matrix, 0, 3*parts)
	for j := 0; j < parts; j++ {
		cols = append(cols,
			wq.SubMatrix(0, j*bc, h, bc),
			wk.SubMatrix(0, j*bc, h, bc),
			wv.SubMatrix(0, j*bc, h, bc))
	}
	return tensor.HCat(cols...)
}

// SplitQKV copies the local fused projection output [m, 3c] into three
// workspace buffers Q, K, V of [m, c] each, matching qkv's phantomness. The
// caller retains them for AttendBackward and returns them to the workspace.
func SplitQKV(w *dist.Worker, qkv *tensor.Matrix) (q, k, v *tensor.Matrix) {
	ws := w.Workspace()
	c := qkv.Cols / 3
	ph := qkv.Phantom()
	q = ws.GetUninitMatch(qkv.Rows, c, ph)
	k = ws.GetUninitMatch(qkv.Rows, c, ph)
	v = ws.GetUninitMatch(qkv.Rows, c, ph)
	tensor.SubMatrixInto(q, qkv, 0, 0)
	tensor.SubMatrixInto(k, qkv, 0, c)
	tensor.SubMatrixInto(v, qkv, 0, 2*c)
	return q, k, v
}

// AttendForward runs the per-rank multi-head attention core every family
// shares: q, k, v are [m, localHeads·dh] blocks holding m/seqLen whole
// sequences of this rank's heads, and the result is softmax(q·kᵀ/√dh)·v per
// head and sequence, in a fresh workspace buffer of q's shape. The per-head
// probabilities are appended to probs (pass a reset slice) and returned,
// since AttendBackward reads them; each is a workspace buffer the caller
// releases.
//
// In phantom mode the arithmetic is skipped and the flop cost is charged
// analytically with a possibly fractional sequences-per-rank count (the
// paper's Table 1 includes shapes like Tesseract [4,4,2] at batch 12, where
// b/(dq) = 1.5); the charge equals what the real loop charges.
func AttendForward(w *dist.Worker, q, k, v *tensor.Matrix, localHeads, seqLen int, probs []*tensor.Matrix) (*tensor.Matrix, []*tensor.Matrix) {
	ws := w.Workspace()
	dh := q.Cols / localHeads
	s := seqLen
	if q.Phantom() {
		seqF := float64(q.Rows) / float64(s)
		perHead := 4*float64(s)*float64(s)*float64(dh) + FlopsPerSoftmax*float64(s)*float64(s)
		w.Compute(seqF * float64(localHeads) * perHead)
		return ws.GetUninitMatch(q.Rows, q.Cols, true), probs
	}
	if q.Rows%s != 0 {
		panic(fmt.Sprintf("compute: attention rows %d not divisible by seq len %d", q.Rows, s))
	}
	nseq := q.Rows / s
	scale := 1 / math.Sqrt(float64(dh))
	out := ws.GetUninit(q.Rows, q.Cols) // every head block is overwritten below
	qs := ws.GetUninit(s, dh)
	ks := ws.GetUninit(s, dh)
	vs := ws.GetUninit(s, dh)
	scores := ws.GetUninit(s, s)
	head := ws.GetUninit(s, dh)
	for sq := 0; sq < nseq; sq++ {
		for hd := 0; hd < localHeads; hd++ {
			tensor.SubMatrixInto(qs, q, sq*s, hd*dh)
			tensor.SubMatrixInto(ks, k, sq*s, hd*dh)
			tensor.SubMatrixInto(vs, v, sq*s, hd*dh)
			MatMulNTInto(w, scores, qs, ks)
			tensor.ScaleInPlace(scores, scale)
			p := ws.GetUninit(s, s) // retained for the backward pass
			SoftmaxRowsTo(w, p, scores)
			probs = append(probs, p)
			head.Zero()
			MatMulInto(w, head, p, vs)
			out.SetSubMatrix(sq*s, hd*dh, head)
		}
	}
	ws.Put(qs, ks, vs, scores, head)
	return out, probs
}

// AttendBackward propagates the attention output gradient dout through the
// core AttendForward computed from q, k, v, returning the fused gradient
// [m, 3c] laid out like the fused projection output ([dQ | dK | dV], with c
// = dout.Cols) in a fresh workspace buffer. probs is what AttendForward
// returned. Phantom operands are charged analytically, as in the forward.
func AttendBackward(w *dist.Worker, dout, q, k, v *tensor.Matrix, probs []*tensor.Matrix, localHeads, seqLen int) *tensor.Matrix {
	ws := w.Workspace()
	c := dout.Cols
	dh := c / localHeads
	s := seqLen
	if dout.Phantom() {
		seqF := float64(dout.Rows) / float64(s)
		perHead := 8*float64(s)*float64(s)*float64(dh) + FlopsPerSoftmax*float64(s)*float64(s)
		w.Compute(seqF * float64(localHeads) * perHead)
		return ws.GetUninitMatch(dout.Rows, 3*c, true)
	}
	nseq := dout.Rows / s
	scale := 1 / math.Sqrt(float64(dh))
	dqkv := ws.GetUninit(dout.Rows, 3*c) // every block is overwritten below
	dhead := ws.GetUninit(s, dh)
	qs := ws.GetUninit(s, dh)
	ks := ws.GetUninit(s, dh)
	vs := ws.GetUninit(s, dh)
	dvs := ws.GetUninit(s, dh)
	dprobs := ws.GetUninit(s, s)
	dscores := ws.GetUninit(s, s)
	dqs := ws.GetUninit(s, dh)
	dks := ws.GetUninit(s, dh)
	for sq := 0; sq < nseq; sq++ {
		for hd := 0; hd < localHeads; hd++ {
			p := probs[sq*localHeads+hd]
			tensor.SubMatrixInto(dhead, dout, sq*s, hd*dh)
			tensor.SubMatrixInto(qs, q, sq*s, hd*dh)
			tensor.SubMatrixInto(ks, k, sq*s, hd*dh)
			tensor.SubMatrixInto(vs, v, sq*s, hd*dh)

			dvs.Zero()
			MatMulTNInto(w, dvs, p, dhead)
			MatMulNTInto(w, dprobs, dhead, vs)
			SoftmaxRowsBackwardTo(w, dscores, p, dprobs)
			tensor.ScaleInPlace(dscores, scale)
			dqs.Zero()
			MatMulInto(w, dqs, dscores, ks)
			dks.Zero()
			MatMulTNInto(w, dks, dscores, qs)

			dqkv.SetSubMatrix(sq*s, hd*dh, dqs)
			dqkv.SetSubMatrix(sq*s, c+hd*dh, dks)
			dqkv.SetSubMatrix(sq*s, 2*c+hd*dh, dvs)
		}
	}
	ws.Put(dhead, qs, ks, vs, dvs, dprobs, dscores, dqs, dks)
	return dqkv
}

// Package solomonik implements the 2.5-D matrix multiplication algorithm of
// Solomonik & Demmel (Euro-Par 2011), the second baseline the paper compares
// Tesseract against (§2.3, §3.1). The algorithm replicates the 2-D block
// distribution across d depth layers, lets layer k execute q/d of Cannon's
// q multiply-shift rounds starting from a k-dependent skew, and reduces the
// partial products across the depth fibres.
//
// d = 1 degenerates to Cannon's algorithm; d = q (with q/d = 1 round and no
// intermediate shifts) is the 3-D algorithm — exactly the special cases
// named in §2.3.
package solomonik

import (
	"fmt"
	"math"

	"repro/internal/cannon"
	"repro/internal/compute"
	"repro/internal/mesh"
	"repro/internal/tensor"
)

// MulAB multiplies 2-D block-distributed matrices with the 2.5-D algorithm
// on a [q, q, d] mesh where d divides q. The caller at (i, j, 0) passes its
// blocks A[i,j], B[i,j] of the q×q front-layer distribution; callers on
// deeper layers pass receive buffers of the same shapes, which the initial
// depth broadcast overwrites with the front layer's blocks. Every caller
// returns the complete local block C[i,j] (the depth reduction is an
// all-reduce so the front layer and the replicas agree).
func MulAB(p *mesh.Proc, a, b *tensor.Matrix) *tensor.Matrix {
	q, d := p.Shape.Q, p.Shape.D
	if q%d != 0 {
		panic(fmt.Sprintf("solomonik: depth %d must divide dimension %d", d, q))
	}
	if a == nil || b == nil {
		panic("solomonik: every layer must provide blocks (receive buffers below the front layer)")
	}
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("solomonik: local blocks %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	// Step 1: replicate the front layer's blocks across the depth fibre.
	front := p.DepthRank(0)
	p.Depth.BroadcastInto(p.W, front, a, a)
	p.Depth.BroadcastInto(p.W, front, b, b)

	var c *tensor.Matrix
	if a.Phantom() || b.Phantom() {
		c = tensor.NewPhantom(a.Rows, b.Cols)
	} else {
		c = tensor.New(a.Rows, b.Cols)
	}

	// Step 2: layer k performs rounds [k·q/d, (k+1)·q/d) of the Cannon
	// schedule. The skew places A(i, i+j+k·q/d) and B(i+j+k·q/d, j) on
	// processor (i, j, k) so the inner indices line up.
	rounds := q / d
	offset := p.K * rounds
	a = cannon.ShiftLeft(p, a, p.I+offset)
	b = cannon.ShiftUp(p, b, p.J+offset)
	for t := 0; t < rounds; t++ {
		compute.MatMulInto(p.W, c, a, b)
		if t < rounds-1 {
			a = cannon.ShiftLeft(p, a, 1)
			b = cannon.ShiftUp(p, b, 1)
		}
	}

	// Step 3: sum the partial products across the depth fibre.
	return p.Depth.AllReduceInto(p.W, c, c)
}

// Transfers returns the paper's closed-form transfer count for the 2.5-D
// algorithm on p processors: 2p − 2p^{1/3} (§3.1).
func Transfers(p int) float64 {
	return 2*float64(p) - 2*math.Cbrt(float64(p))
}

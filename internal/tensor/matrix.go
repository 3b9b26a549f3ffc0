// Package tensor implements the dense linear algebra used by the Tesseract
// reproduction: a row-major float64 matrix type, GEMM variants, elementwise
// operations, reductions, and a deterministic random number generator.
//
// Matrices come in two flavours:
//
//   - real matrices carry data and support arithmetic;
//   - phantom matrices (Data == nil) carry only a shape. Every operation in
//     this package propagates phantomness: combining a phantom operand yields
//     a phantom result of the correct shape and performs no arithmetic.
//
// Phantom matrices let the distributed algorithms in this repository run at
// paper scale (hidden sizes of 8192 and beyond) purely for communication and
// flop accounting, while the identical code path runs on real data at small
// scale for correctness testing.
package tensor

import (
	"fmt"
	"math"
	"strings"
)

// Matrix is a dense row-major matrix. The zero value is an empty matrix.
// If Data is nil but Rows*Cols > 0 the matrix is a phantom: it has a shape
// but no storage (see the package comment).
type Matrix struct {
	Rows, Cols int
	Data       []float64

	// Workspace bookkeeping, intrusive so the pool's hot path needs no map
	// of checked-out buffers: ws is the pool this matrix is currently
	// checked out of (nil otherwise), wsIdx its slot in that pool's
	// checked-out list, bucket its home free list, and borrows the number
	// of in-flight nonblocking collectives currently reading or writing it
	// (see Workspace.Borrow).
	ws      *Workspace
	wsIdx   int32
	borrows int32
	bucket  *wsBucket
}

// New returns a zero-initialised Rows×Cols matrix.
func New(rows, cols int) *Matrix {
	checkDims(rows, cols)
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewPhantom returns a shape-only matrix with no backing storage.
func NewPhantom(rows, cols int) *Matrix {
	checkDims(rows, cols)
	return &Matrix{Rows: rows, Cols: cols}
}

// FromSlice wraps data (length rows*cols, row-major) in a Matrix without
// copying. It panics if the length does not match.
func FromSlice(rows, cols int, data []float64) *Matrix {
	checkDims(rows, cols)
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice got %d elements for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// FromRows builds a matrix from a slice of equal-length rows.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return &Matrix{}
	}
	m := New(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("tensor: FromRows ragged input")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

func checkDims(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
}

// Phantom reports whether m is shape-only.
func (m *Matrix) Phantom() bool { return m.Data == nil && m.Rows*m.Cols > 0 }

// Size returns the number of elements.
func (m *Matrix) Size() int { return m.Rows * m.Cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 {
	m.bounds(i, j)
	return m.Data[i*m.Cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) {
	m.bounds(i, j)
	m.Data[i*m.Cols+j] = v
}

func (m *Matrix) bounds(i, j int) {
	if i < 0 || i >= m.Rows || j < 0 || j >= m.Cols {
		panic(fmt.Sprintf("tensor: index (%d,%d) out of range %dx%d", i, j, m.Rows, m.Cols))
	}
	if m.Data == nil {
		panic("tensor: element access on phantom matrix")
	}
}

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float64 {
	if i < 0 || i >= m.Rows {
		panic(fmt.Sprintf("tensor: row %d out of range %d", i, m.Rows))
	}
	if m.Data == nil {
		panic("tensor: Row on phantom matrix")
	}
	return m.Data[i*m.Cols : (i+1)*m.Cols]
}

// Clone returns a deep copy (phantoms clone to phantoms).
func (m *Matrix) Clone() *Matrix {
	out := &Matrix{Rows: m.Rows, Cols: m.Cols}
	if m.Data != nil {
		out.Data = make([]float64, len(m.Data))
		copy(out.Data, m.Data)
	}
	return out
}

// CopyInto copies src's elements into dst (equal shapes required). It is a
// no-op when either side is phantom and when dst and src are the same
// matrix, so collectives can treat "destination equals payload" uniformly.
func CopyInto(dst, src *Matrix) {
	if !dst.SameShape(src) {
		panic(fmt.Sprintf("tensor: CopyInto %dx%d from %dx%d", dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	if dst == src {
		return
	}
	if (dst.Data == nil) != (src.Data == nil) {
		panic(fmt.Sprintf("tensor: CopyInto phantomness mismatch (dst phantom=%v, src phantom=%v)", dst.Data == nil, src.Data == nil))
	}
	copy(dst.Data, src.Data)
}

// SubMatrixInto copies the dst.Rows×dst.Cols block of src starting at
// (r0, c0) into dst — the pooled counterpart of SubMatrix. No-op when either
// side is phantom.
func SubMatrixInto(dst, src *Matrix, r0, c0 int) {
	if r0 < 0 || c0 < 0 || r0+dst.Rows > src.Rows || c0+dst.Cols > src.Cols {
		panic(fmt.Sprintf("tensor: SubMatrixInto (%d,%d)+%dx%d out of %dx%d", r0, c0, dst.Rows, dst.Cols, src.Rows, src.Cols))
	}
	if dst.Data == nil || src.Data == nil {
		return
	}
	for i := 0; i < dst.Rows; i++ {
		copy(dst.Data[i*dst.Cols:(i+1)*dst.Cols], src.Data[(r0+i)*src.Cols+c0:(r0+i)*src.Cols+c0+dst.Cols])
	}
}

// SameShape reports whether m and n have identical dimensions.
func (m *Matrix) SameShape(n *Matrix) bool { return m.Rows == n.Rows && m.Cols == n.Cols }

// Zero sets every element to 0 (no-op on phantoms).
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets every element to v (no-op on phantoms).
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// String renders small matrices for debugging; large ones render as a shape.
func (m *Matrix) String() string {
	if m.Phantom() {
		return fmt.Sprintf("phantom[%dx%d]", m.Rows, m.Cols)
	}
	if m.Rows*m.Cols > 64 {
		return fmt.Sprintf("matrix[%dx%d]", m.Rows, m.Cols)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "matrix[%dx%d]{", m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		if i > 0 {
			b.WriteString("; ")
		}
		for j := 0; j < m.Cols; j++ {
			if j > 0 {
				b.WriteByte(' ')
			}
			fmt.Fprintf(&b, "%.4g", m.At(i, j))
		}
	}
	b.WriteByte('}')
	return b.String()
}

// MaxAbsDiff returns the largest absolute element difference between m and n.
// It panics on shape mismatch and returns 0 when either operand is phantom.
func (m *Matrix) MaxAbsDiff(n *Matrix) float64 {
	if !m.SameShape(n) {
		panic(fmt.Sprintf("tensor: MaxAbsDiff %dx%d vs %dx%d", m.Rows, m.Cols, n.Rows, n.Cols))
	}
	if m.Data == nil || n.Data == nil {
		return 0
	}
	var d float64
	for i := range m.Data {
		if v := math.Abs(m.Data[i] - n.Data[i]); v > d {
			d = v
		}
	}
	return d
}

// AllClose reports whether every element of m is within tol of n, using a
// combined absolute/relative criterion |a-b| <= tol*(1+max(|a|,|b|)).
func (m *Matrix) AllClose(n *Matrix, tol float64) bool {
	if !m.SameShape(n) {
		return false
	}
	if m.Data == nil || n.Data == nil {
		return m.Data == nil && n.Data == nil
	}
	for i := range m.Data {
		a, b := m.Data[i], n.Data[i]
		scale := math.Max(math.Abs(a), math.Abs(b))
		if math.Abs(a-b) > tol*(1+scale) {
			return false
		}
	}
	return true
}

// Equal reports exact element equality (and equal shape).
func (m *Matrix) Equal(n *Matrix) bool {
	if !m.SameShape(n) {
		return false
	}
	if m.Data == nil || n.Data == nil {
		return m.Data == nil && n.Data == nil
	}
	for i := range m.Data {
		if m.Data[i] != n.Data[i] {
			return false
		}
	}
	return true
}

// SubMatrix copies the block [r0:r0+rows, c0:c0+cols] into a new matrix.
// Phantom input yields a phantom block.
func (m *Matrix) SubMatrix(r0, c0, rows, cols int) *Matrix {
	if r0 < 0 || c0 < 0 || r0+rows > m.Rows || c0+cols > m.Cols {
		panic(fmt.Sprintf("tensor: SubMatrix (%d,%d,%d,%d) out of %dx%d", r0, c0, rows, cols, m.Rows, m.Cols))
	}
	if m.Data == nil {
		return NewPhantom(rows, cols)
	}
	out := New(rows, cols)
	for i := 0; i < rows; i++ {
		copy(out.Data[i*cols:(i+1)*cols], m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+cols])
	}
	return out
}

// SetSubMatrix copies src into m starting at (r0, c0). No-op when either side
// is phantom.
func (m *Matrix) SetSubMatrix(r0, c0 int, src *Matrix) {
	if r0 < 0 || c0 < 0 || r0+src.Rows > m.Rows || c0+src.Cols > m.Cols {
		panic(fmt.Sprintf("tensor: SetSubMatrix (%d,%d)+%dx%d out of %dx%d", r0, c0, src.Rows, src.Cols, m.Rows, m.Cols))
	}
	if m.Data == nil || src.Data == nil {
		return
	}
	for i := 0; i < src.Rows; i++ {
		copy(m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+src.Cols], src.Data[i*src.Cols:(i+1)*src.Cols])
	}
}

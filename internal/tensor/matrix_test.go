package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func naiveMatMul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

func randomPair(m, k, n int, seed uint64) (*Matrix, *Matrix) {
	rng := NewRNG(seed)
	return RandomMatrix(m, k, rng), RandomMatrix(k, n, rng)
}

func TestNewZeroInitialised(t *testing.T) {
	m := New(3, 4)
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("New not zeroed at (%d,%d)", i, j)
			}
		}
	}
}

func TestFromSliceAliases(t *testing.T) {
	data := []float64{1, 2, 3, 4, 5, 6}
	m := FromSlice(2, 3, data)
	data[0] = 42
	if m.At(0, 0) != 42 {
		t.Fatal("FromSlice should wrap without copying")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer expectPanic(t, "FromSlice")
	FromSlice(2, 3, []float64{1, 2})
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 || m.At(0, 1) != 2 {
		t.Fatalf("FromRows wrong values: %v", m)
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	c := m.Clone()
	c.Set(0, 0, 99)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	for _, dims := range [][3]int{{1, 1, 1}, {2, 3, 4}, {5, 7, 3}, {8, 8, 8}, {1, 9, 2}} {
		a, b := randomPair(dims[0], dims[1], dims[2], uint64(dims[0]*100+dims[1]*10+dims[2]))
		got := MatMul(a, b)
		want := naiveMatMul(a, b)
		if got.MaxAbsDiff(want) > 1e-12 {
			t.Fatalf("MatMul %v: diff %g", dims, got.MaxAbsDiff(want))
		}
	}
}

func TestMatMulNTMatchesTranspose(t *testing.T) {
	rng := NewRNG(7)
	a := RandomMatrix(4, 6, rng)
	b := RandomMatrix(5, 6, rng)
	got := MatMulNT(a, b)
	want := MatMul(a, Transpose(b))
	if got.MaxAbsDiff(want) > 1e-12 {
		t.Fatalf("MatMulNT diff %g", got.MaxAbsDiff(want))
	}
}

func TestMatMulTNMatchesTranspose(t *testing.T) {
	rng := NewRNG(8)
	a := RandomMatrix(6, 4, rng)
	b := RandomMatrix(6, 5, rng)
	got := MatMulTN(a, b)
	want := MatMul(Transpose(a), b)
	if got.MaxAbsDiff(want) > 1e-12 {
		t.Fatalf("MatMulTN diff %g", got.MaxAbsDiff(want))
	}
}

func TestMatMulIntoAccumulates(t *testing.T) {
	a, b := randomPair(3, 4, 5, 11)
	c := New(3, 5)
	c.Fill(1)
	MatMulInto(c, a, b)
	want := Add(naiveMatMul(a, b), onesLike(3, 5))
	if c.MaxAbsDiff(want) > 1e-12 {
		t.Fatal("MatMulInto must accumulate")
	}
}

func onesLike(r, c int) *Matrix {
	m := New(r, c)
	m.Fill(1)
	return m
}

func TestMatMulShapePanic(t *testing.T) {
	defer expectPanic(t, "MatMul")
	MatMul(New(2, 3), New(4, 5))
}

func TestTransposeInvolution(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		r := 1 + rng.Intn(6)
		c := 1 + rng.Intn(6)
		m := RandomMatrix(r, c, rng)
		return Transpose(Transpose(m)).MaxAbsDiff(m) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulTransposeProperty(t *testing.T) {
	// (A·B)ᵀ = Bᵀ·Aᵀ
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := RandomMatrix(m, k, rng)
		b := RandomMatrix(k, n, rng)
		lhs := Transpose(MatMul(a, b))
		rhs := MatMul(Transpose(b), Transpose(a))
		return lhs.MaxAbsDiff(rhs) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMatMulDistributivity(t *testing.T) {
	// A·(B+C) = A·B + A·C
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m, k, n := 1+rng.Intn(5), 1+rng.Intn(5), 1+rng.Intn(5)
		a := RandomMatrix(m, k, rng)
		b := RandomMatrix(k, n, rng)
		c := RandomMatrix(k, n, rng)
		lhs := MatMul(a, Add(b, c))
		rhs := Add(MatMul(a, b), MatMul(a, c))
		return lhs.MaxAbsDiff(rhs) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSubMatrixSetSubMatrixRoundTrip(t *testing.T) {
	rng := NewRNG(5)
	m := RandomMatrix(6, 8, rng)
	sub := m.SubMatrix(2, 3, 3, 4)
	n := New(6, 8)
	n.SetSubMatrix(2, 3, sub)
	if n.SubMatrix(2, 3, 3, 4).MaxAbsDiff(sub) != 0 {
		t.Fatal("SubMatrix/SetSubMatrix round trip failed")
	}
}

func TestPhantomPropagation(t *testing.T) {
	ph := NewPhantom(3, 4)
	real := New(4, 5)
	if got := MatMul(ph, real); !got.Phantom() || got.Rows != 3 || got.Cols != 5 {
		t.Fatalf("MatMul phantom: %v", got)
	}
	if got := Transpose(ph); !got.Phantom() || got.Rows != 4 {
		t.Fatal("Transpose phantom")
	}
	if got := Add(ph, NewPhantom(3, 4)); !got.Phantom() {
		t.Fatal("Add phantom")
	}
	if got := SoftmaxRows(ph); !got.Phantom() {
		t.Fatal("SoftmaxRows phantom")
	}
	if got := GELU(ph); !got.Phantom() {
		t.Fatal("GELU phantom")
	}
	if got := ph.SubMatrix(1, 1, 2, 2); !got.Phantom() {
		t.Fatal("SubMatrix phantom")
	}
	if got := ColSums(ph); !got.Phantom() || got.Cols != 4 {
		t.Fatal("ColSums phantom")
	}
	if got := HCat(ph, New(3, 2)); !got.Phantom() || got.Cols != 6 {
		t.Fatal("HCat phantom")
	}
	if got := VCat(ph, New(2, 4)); !got.Phantom() || got.Rows != 5 {
		t.Fatal("VCat phantom")
	}
}

func TestPhantomElementAccessPanics(t *testing.T) {
	defer expectPanic(t, "At on phantom")
	NewPhantom(2, 2).At(0, 0)
}

func TestAllClose(t *testing.T) {
	a := FromRows([][]float64{{1, 2}})
	b := FromRows([][]float64{{1 + 1e-12, 2}})
	if !a.AllClose(b, 1e-9) {
		t.Fatal("AllClose should accept tiny differences")
	}
	c := FromRows([][]float64{{1.1, 2}})
	if a.AllClose(c, 1e-9) {
		t.Fatal("AllClose should reject large differences")
	}
}

func TestRowColSums(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	rs := RowSums(m)
	if rs.At(0, 0) != 6 || rs.At(1, 0) != 15 {
		t.Fatalf("RowSums wrong: %v", rs)
	}
	cs := ColSums(m)
	if cs.At(0, 0) != 5 || cs.At(0, 1) != 7 || cs.At(0, 2) != 9 {
		t.Fatalf("ColSums wrong: %v", cs)
	}
}

func TestAddRowVector(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	v := FromRows([][]float64{{10, 20}})
	got := AddRowVector(m, v)
	want := FromRows([][]float64{{11, 22}, {13, 24}})
	if got.MaxAbsDiff(want) != 0 {
		t.Fatalf("AddRowVector wrong: %v", got)
	}
}

func TestColVectorOps(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	v := FromRows([][]float64{{10}, {100}})
	if got := AddColVector(m, v); got.At(1, 1) != 104 {
		t.Fatalf("AddColVector wrong: %v", got)
	}
	if got := SubColVector(m, v); got.At(0, 0) != -9 {
		t.Fatalf("SubColVector wrong: %v", got)
	}
	if got := MulColVector(m, v); got.At(1, 0) != 300 {
		t.Fatalf("MulColVector wrong: %v", got)
	}
}

func TestArgmaxRows(t *testing.T) {
	m := FromRows([][]float64{{1, 5, 2}, {9, 0, 3}})
	got := ArgmaxRows(m)
	if got[0] != 1 || got[1] != 0 {
		t.Fatalf("ArgmaxRows wrong: %v", got)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m := RandomMatrix(1+rng.Intn(5), 1+rng.Intn(6), rng)
		ScaleInPlace(m, 10)
		s := SoftmaxRows(m)
		sums := RowSums(s)
		for i := 0; i < sums.Rows; i++ {
			if math.Abs(sums.At(i, 0)-1) > 1e-12 {
				return false
			}
			for j := 0; j < s.Cols; j++ {
				if s.At(i, j) < 0 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxNumericalStability(t *testing.T) {
	m := FromRows([][]float64{{1000, 1001, 1002}})
	s := SoftmaxRows(m)
	if math.IsNaN(s.At(0, 0)) || math.IsInf(s.At(0, 2), 0) {
		t.Fatal("softmax overflowed on large inputs")
	}
}

func TestSoftmaxBackwardFiniteDifference(t *testing.T) {
	rng := NewRNG(3)
	x := RandomMatrix(2, 4, rng)
	ds := RandomMatrix(2, 4, rng)
	s := SoftmaxRows(x)
	grad := SoftmaxRowsBackward(s, ds)
	const eps = 1e-6
	for i := 0; i < x.Rows; i++ {
		for j := 0; j < x.Cols; j++ {
			orig := x.At(i, j)
			x.Set(i, j, orig+eps)
			up := SoftmaxRows(x)
			x.Set(i, j, orig-eps)
			dn := SoftmaxRows(x)
			x.Set(i, j, orig)
			var fd float64
			for c := 0; c < x.Cols; c++ {
				fd += ds.At(i, c) * (up.At(i, c) - dn.At(i, c)) / (2 * eps)
			}
			if math.Abs(fd-grad.At(i, j)) > 1e-6 {
				t.Fatalf("softmax grad (%d,%d): fd=%g analytic=%g", i, j, fd, grad.At(i, j))
			}
		}
	}
}

func TestGELUGradFiniteDifference(t *testing.T) {
	for _, x := range []float64{-3, -1, -0.1, 0, 0.1, 1, 3} {
		const eps = 1e-6
		fd := (geluScalar(x+eps) - geluScalar(x-eps)) / (2 * eps)
		if math.Abs(fd-geluGradScalar(x)) > 1e-6 {
			t.Fatalf("gelu grad at %g: fd=%g analytic=%g", x, fd, geluGradScalar(x))
		}
	}
}

func TestFrobeniusAndSum(t *testing.T) {
	m := FromRows([][]float64{{3, 4}})
	if Frobenius(m) != 5 {
		t.Fatalf("Frobenius = %g", Frobenius(m))
	}
	if Sum(m) != 7 {
		t.Fatalf("Sum = %g", Sum(m))
	}
}

func expectPanic(t *testing.T, name string) {
	t.Helper()
	if recover() == nil {
		t.Fatalf("%s: expected panic", name)
	}
}

package mat

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("New(3,4) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
}

func TestFromRowsAndAt(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	if m.At(0, 1) != 2 || m.At(2, 0) != 5 {
		t.Fatalf("At mismatch: %v", m.Data)
	}
	m.Set(1, 1, 9)
	if m.At(1, 1) != 9 {
		t.Fatal("Set did not persist")
	}
}

func TestFromRowsRaggedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ragged FromRows should panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestRowSharesStorage(t *testing.T) {
	m := New(2, 2)
	m.Row(1)[0] = 7
	if m.At(1, 0) != 7 {
		t.Fatal("Row must alias matrix storage")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not share storage")
	}
}

func TestTranspose(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	tr := m.T()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("T shape %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("T values wrong: %v", tr.Data)
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{10, 20}, {30, 40}})
	sum := Add(nil, a, b)
	if sum.At(1, 1) != 44 {
		t.Fatalf("Add wrong: %v", sum.Data)
	}
	diff := Sub(nil, b, a)
	if diff.At(0, 0) != 9 {
		t.Fatalf("Sub wrong: %v", diff.Data)
	}
	diff.Scale(2)
	if diff.At(0, 0) != 18 {
		t.Fatalf("Scale wrong: %v", diff.Data)
	}
}

func TestAddRowVector(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	m.AddRowVector([]float64{10, 100})
	want := FromRows([][]float64{{11, 102}, {13, 104}})
	if !Equal(m, want, 0) {
		t.Fatalf("AddRowVector = %v", m.Data)
	}
}

func TestMulSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	b := FromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	got := Mul(nil, a, b)
	want := FromRows([][]float64{{58, 64}, {139, 154}})
	if !Equal(got, want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got.Data, want.Data)
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Mul(nil, New(2, 3), New(2, 3))
}

// mulNaive is the reference implementation used to validate the optimized
// and parallel kernels.
func mulNaive(a, b *Matrix) *Matrix {
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

func randomMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func TestMulMatchesNaiveLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := randomMatrix(rng, 65, 93)
	b := randomMatrix(rng, 93, 77)
	got := Mul(nil, a, b)
	want := mulNaive(a, b)
	if !Equal(got, want, 1e-9) {
		t.Fatal("parallel Mul diverges from naive")
	}
}

func TestMulDeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randomMatrix(rng, 120, 64)
	b := randomMatrix(rng, 64, 96)
	old := runtime.GOMAXPROCS(1)
	seq := Mul(nil, a, b)
	runtime.GOMAXPROCS(4)
	par := Mul(nil, a, b)
	runtime.GOMAXPROCS(old)
	if !Equal(seq, par, 0) {
		t.Fatal("Mul result depends on GOMAXPROCS")
	}
}

func TestMulT1(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(rng, 31, 17)
	b := randomMatrix(rng, 31, 23)
	got := MulT1(nil, a, b)
	want := mulNaive(a.T(), b)
	if !Equal(got, want, 1e-9) {
		t.Fatal("MulT1 diverges from naive")
	}
}

func TestMulT1DeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	a := randomMatrix(rng, 64, 96)
	b := randomMatrix(rng, 64, 80)
	old := runtime.GOMAXPROCS(1)
	seq := MulT1(nil, a, b)
	runtime.GOMAXPROCS(4)
	par := MulT1(nil, a, b)
	runtime.GOMAXPROCS(old)
	if !Equal(seq, par, 0) {
		t.Fatal("MulT1 result depends on GOMAXPROCS")
	}
}

func TestMulT2(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomMatrix(rng, 40, 19)
	b := randomMatrix(rng, 33, 19)
	got := MulT2(nil, a, b)
	want := mulNaive(a, b.T())
	if !Equal(got, want, 1e-9) {
		t.Fatal("MulT2 diverges from naive")
	}
}

func TestDot(t *testing.T) {
	if Dot([]float64{1, 2, 3}, []float64{4, 5, 6}) != 32 {
		t.Fatal("Dot wrong")
	}
}

func TestAxpy(t *testing.T) {
	y := []float64{1, 1}
	Axpy(2, []float64{3, 4}, y)
	if y[0] != 7 || y[1] != 9 {
		t.Fatalf("Axpy = %v", y)
	}
}

// Property: (A·B)ᵀ == Bᵀ·Aᵀ.
func TestMulTransposeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a := randomMatrix(rng, r, k)
		b := randomMatrix(rng, k, c)
		left := Mul(nil, a, b).T()
		right := Mul(nil, b.T(), a.T())
		return Equal(left, right, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: matrix multiplication distributes over addition.
func TestMulDistributiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r, k, c := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		a := randomMatrix(rng, r, k)
		b := randomMatrix(rng, k, c)
		d := randomMatrix(rng, k, c)
		left := Mul(nil, a, Add(nil, b, d))
		right := Add(nil, Mul(nil, a, b), Mul(nil, a, d))
		return Equal(left, right, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestZeroAndFill(t *testing.T) {
	m := FromRows([][]float64{{1, 2}})
	m.Fill(3)
	if m.At(0, 0) != 3 || m.At(0, 1) != 3 {
		t.Fatal("Fill failed")
	}
	m.Zero()
	if m.At(0, 0) != 0 {
		t.Fatal("Zero failed")
	}
}

func TestEqualShapes(t *testing.T) {
	if Equal(New(1, 2), New(2, 1), math.Inf(1)) {
		t.Fatal("Equal must reject shape mismatch")
	}
}

func BenchmarkMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := randomMatrix(rng, 128, 128)
	y := randomMatrix(rng, 128, 128)
	dst := New(128, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Mul(dst, x, y)
	}
}

// Package mat provides the small dense float64 matrix and vector kernels
// used throughout DiagNet: storage, BLAS-1 style helpers and the three
// matrix products of a dense layer (Mul, MulT1, MulT2).
//
// The products share one driver (mul.go): the right-hand operand is packed
// into 8-column panels, each reused for every 4-row tile of the left-hand
// operand, and a tile is accumulated in registers by an AVX2 micro-kernel
// (gemm_amd64.s). Products shorter than a tile, the ragged edges of larger
// ones, and every product on a machine without the kernel run scalar loops.
//
// The package is deliberately minimal — it implements exactly the
// operations the neural network and the baselines need — and its results
// are deterministic: every output element is reduced in index order by
// separately rounded multiplies and adds, so its bits depend neither on
// GOMAXPROCS, nor on which of the two code paths computed it, nor on how
// many other rows were multiplied in the same call.
package mat

import (
	"fmt"
	"math"
)

// Matrix is a dense, row-major float64 matrix.
//
// The zero value is an empty 0×0 matrix. Data holds Rows*Cols elements;
// element (i, j) lives at Data[i*Cols+j].
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix from a slice of equally sized rows.
// The data is copied.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return New(0, 0)
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			panic(fmt.Sprintf("mat: ragged rows: row %d has %d cols, want %d", i, len(r), cols))
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m
}

// FromSlice wraps (not copies) data as a rows×cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("mat: FromSlice: %d elements for %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice sharing the matrix storage.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero resets all elements to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Fill sets all elements to v in place.
func (m *Matrix) Fill(v float64) {
	for i := range m.Data {
		m.Data[i] = v
	}
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// Add stores a+b into dst (allocating when dst is nil) and returns dst.
func Add(dst, a, b *Matrix) *Matrix {
	checkSameShape("Add", a, b)
	dst = ensureShape(dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = v + b.Data[i]
	}
	return dst
}

// Sub stores a-b into dst (allocating when dst is nil) and returns dst.
func Sub(dst, a, b *Matrix) *Matrix {
	checkSameShape("Sub", a, b)
	dst = ensureShape(dst, a.Rows, a.Cols)
	for i, v := range a.Data {
		dst.Data[i] = v - b.Data[i]
	}
	return dst
}

// Scale multiplies every element of m by s in place.
func (m *Matrix) Scale(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// AddInPlace adds b to m element-wise.
func (m *Matrix) AddInPlace(b *Matrix) {
	checkSameShape("AddInPlace", m, b)
	for i, v := range b.Data {
		m.Data[i] += v
	}
}

// AddRowVector adds vector v to every row of m in place.
func (m *Matrix) AddRowVector(v []float64) {
	if len(v) != m.Cols {
		panic(fmt.Sprintf("mat: AddRowVector: len %d, want %d", len(v), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j := range row {
			row[j] += v[j]
		}
	}
}

// Equal reports whether a and b have the same shape and all elements are
// within tol of each other.
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func checkSameShape(op string, a, b *Matrix) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: %s: shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

func ensureShape(dst *Matrix, rows, cols int) *Matrix {
	if dst == nil {
		return New(rows, cols)
	}
	if dst.Rows != rows || dst.Cols != cols {
		panic(fmt.Sprintf("mat: dst shape %dx%d, want %dx%d", dst.Rows, dst.Cols, rows, cols))
	}
	return dst
}

package mat

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// The contract of the GEMM driver: whatever mix of tile-kernel tiles,
// row-kernel rows, scalar edges and worker goroutines computes a product,
// every element has the bits the scalar loops alone give it. The scalar
// loops (mulRows, mulT1Rows, mulT2Rows) are the oracle: pure Go, never
// dispatching to assembly. So that the oracle is not only compared with the
// code it shares its inner loops with, it is itself compared with the naive
// triple loop.

// products lists the three entry points with the shapes of their operands
// for an m×n result reduced over k, their scalar reference, and the strides
// at which the naive reference finds A(i, k) and B(k, j) in a and b.
var products = []struct {
	name    string
	mul     func(dst, a, b *Matrix) *Matrix
	shapes  func(m, n, k int) (ar, ac, br, bc int)
	scalar  func(dst, a, b *Matrix, i0, i1, j0, j1 int)
	strides func(a, b *Matrix) (aI, aK, bK, bJ int)
}{
	{"Mul", Mul, func(m, n, k int) (int, int, int, int) { return m, k, k, n }, mulRows,
		func(a, b *Matrix) (int, int, int, int) { return a.Cols, 1, b.Cols, 1 }},
	{"MulT1", MulT1, func(m, n, k int) (int, int, int, int) { return k, m, k, n }, mulT1Rows,
		func(a, b *Matrix) (int, int, int, int) { return 1, a.Cols, b.Cols, 1 }},
	{"MulT2", MulT2, func(m, n, k int) (int, int, int, int) { return m, k, n, k }, mulT2Rows,
		func(a, b *Matrix) (int, int, int, int) { return a.Cols, 1, 1, b.Cols }},
}

// naive is the definition of the product: for i, j, k, one sum from +0 in
// index order, no zero skipped, nothing unrolled, nothing shared with mul.go.
func naive(a, b *Matrix, m, n, k, aI, aK, bK, bJ int) *Matrix {
	dst := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for kk := 0; kk < k; kk++ {
				s += a.Data[i*aI+kk*aK] * b.Data[kk*bK+j*bJ]
			}
			dst.Data[i*n+j] = s
		}
	}
	return dst
}

// awkward values a reduction can meet without leaving the finite numbers:
// both zeros, denormals, and magnitudes whose products overflow.
var awkward = []float64{0, math.Copysign(0, -1), 5e-324, -3e-310, 1e300, -1e300, 1, -1}

// fillOperand fills m from rng: normal values, with a share of exact zeros
// (ReLU output is half zeros, and whole rows can be), and, when wild is set,
// a share of the awkward values.
func fillOperand(rng *rand.Rand, m *Matrix, zeroShare float64, wild bool) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		rowShare := zeroShare
		if wild && rng.Intn(4) == 0 {
			rowShare = 0.5
		}
		for j := range row {
			switch {
			case rng.Float64() < rowShare:
				row[j] = 0
			case wild && rng.Intn(8) == 0:
				row[j] = awkward[rng.Intn(len(awkward))]
			default:
				row[j] = rng.NormFloat64()
			}
		}
	}
}

// checkBitIdentical multiplies random operands of the given result shape
// with all three products and compares each against its scalar reference,
// and that against the naive one.
func checkBitIdentical(t testing.TB, seed int64, m, n, k int, wild bool) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, p := range products {
		ar, ac, br, bc := p.shapes(m, n, k)
		a, b := New(ar, ac), New(br, bc)
		fillOperand(rng, a, 0.2, wild)
		fillOperand(rng, b, 0.05, wild)
		want, got := New(m, n), New(m, n)
		want.Fill(math.NaN()) // a reused dst must be overwritten, not added to
		got.Fill(math.NaN())
		p.scalar(want, a, b, 0, m, 0, n)
		p.mul(got, a, b)
		// The scalar loops have no path that depends on the size of the
		// product, so the slow naive loop checks them on the smaller ones.
		if m*n*k <= 1<<21 {
			aI, aK, bK, bJ := p.strides(a, b)
			if i := firstBitDiff(want.Data, naive(a, b, m, n, k, aI, aK, bK, bJ).Data); i >= 0 {
				t.Fatalf("%s %dx%dx%d seed %d: element (%d,%d) of the scalar reference differs from the naive loop",
					p.name, m, n, k, seed, i/n, i%n)
			}
		}
		if i := firstBitDiff(got.Data, want.Data); i >= 0 {
			g, w := got.Data[i], want.Data[i]
			t.Fatalf("%s %dx%dx%d seed %d: element (%d,%d) = %x (%v), scalar reference %x (%v)",
				p.name, m, n, k, seed, i/n, i%n, math.Float64bits(g), g, math.Float64bits(w), w)
		}
	}
}

// firstBitDiff returns the first index at which two equally long vectors
// differ in their bits, or -1.
func firstBitDiff(a, b []float64) int {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

func TestGemmBitIdenticalToScalar(t *testing.T) {
	t.Logf("micro-kernel in use: %v", haveKernel)
	// The Table-I layer shapes at a full batch, the narrow output layer,
	// products deeper than one panel, and degenerate ones.
	shapes := [][3]int{
		{64, 512, 317}, {64, 128, 512}, {64, 317, 512}, {317, 512, 64}, {64, 7, 128},
		{4, 8, 1}, {5, 9, 2}, {7, 15, 257}, {13, 23, 600},
		{0, 8, 8}, {8, 0, 8}, {8, 8, 0}, {1, 1, 1}, {4, 7, 300}, {3, 40, 40}, {12, 8, 6}, {12, 8, 5},
		// The row kernel: reductions with k mod 4 of 1, 2 and 3, widths that
		// are not a whole number of its blocks or of vectors, and one deeper
		// than a panel.
		{1, 32, 1}, {2, 16, 2}, {3, 48, 66}, {2, 33, 5}, {3, 45, 7}, {1, 31, 9}, {2, 15, 9},
		{3, 17, 3}, {2, 70, 600}, {11, 37, 11}, {9, 100, 3},
	}
	// Every Table-I product, forward and backward, at the sizes a fragmented
	// batch is served in: all rows by the row kernel, and whole tiles with
	// one to three rows past them.
	for _, rows := range []int{1, 2, 3, 5, 6, 7, 9, 13} {
		for _, nk := range [][2]int{{512, 317}, {128, 512}, {7, 128}, {128, 7}, {512, 128}, {317, 512}} {
			shapes = append(shapes, [3]int{rows, nk[0], nk[1]})
		}
	}
	for i, s := range shapes {
		checkBitIdentical(t, int64(i), s[0], s[1], s[2], false)
		checkBitIdentical(t, int64(100+i), s[0], s[1], s[2], true)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200; i++ {
		checkBitIdentical(t, rng.Int63(), rng.Intn(40), rng.Intn(40), rng.Intn(2*panelDepth+40), i%2 == 0)
	}
}

func FuzzGemmBitIdentical(f *testing.F) {
	f.Add(int64(1), uint8(64), uint8(128), uint16(317), true)
	f.Add(int64(2), uint8(3), uint8(7), uint16(0), false)
	f.Add(int64(3), uint8(9), uint8(17), uint16(2*panelDepth+1), true)
	f.Add(int64(4), uint8(1), uint8(128), uint16(7), true)
	f.Add(int64(5), uint8(2), uint8(61), uint16(317), false)
	f.Add(int64(6), uint8(3), uint8(32), uint16(panelDepth+2), true)
	f.Fuzz(func(t *testing.T, seed int64, m, n uint8, k uint16, wild bool) {
		checkBitIdentical(t, seed, int(m), int(n), int(k%(3*panelDepth)), wild)
	})
}

// Row i of a B-row product is the one-row product of row i: what lets the
// serving engine fuse requests into one pass without changing an answer,
// whichever kernel the size of the pass selects.
func TestGemmRowsIndependentOfBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	all, w := New(64, 317), New(317, 512)
	fillOperand(rng, all, 0.5, false)
	fillOperand(rng, w, 0, false)
	wt := w.T()
	for _, rows := range []int{1, 2, 3, 5, 7, 64} {
		a := FromSlice(rows, all.Cols, all.Data[:rows*all.Cols])
		batch, batchT2 := Mul(nil, a, w), MulT2(nil, a, wt)
		for i := 0; i < rows; i++ {
			row := FromSlice(1, a.Cols, a.Row(i))
			if j := firstBitDiff(batch.Row(i), Mul(nil, row, w).Data); j >= 0 {
				t.Fatalf("Mul: row %d col %d differs between the %d-row batch and the single-row pass", i, j, rows)
			}
			if j := firstBitDiff(batchT2.Row(i), MulT2(nil, row, wt).Data); j >= 0 {
				t.Fatalf("MulT2: row %d col %d differs between the %d-row batch and the single-row pass", i, j, rows)
			}
		}
	}
}

func TestGemmDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	// Tiled shapes with ragged bottom and right edges, more and fewer panels
	// than workers, one below the tile height, and one the row kernel computes
	// that is large enough to be shared out by rows.
	for _, s := range [][3]int{{67, 133, 300}, {13, 17, 4100}, {130, 9, 515}, {3, 200, 400}, {7, 330, 512}} {
		for _, p := range products {
			ar, ac, br, bc := p.shapes(s[0], s[1], s[2])
			rng := rand.New(rand.NewSource(int64(s[0])))
			a, b := randomMatrix(rng, ar, ac), randomMatrix(rng, br, bc)
			runtime.GOMAXPROCS(1)
			seq := p.mul(nil, a, b)
			for _, procs := range []int{2, 3, 8} {
				runtime.GOMAXPROCS(procs)
				if par := p.mul(nil, a, b); firstBitDiff(seq.Data, par.Data) >= 0 {
					t.Fatalf("%s %v: result depends on GOMAXPROCS (%d)", p.name, s, procs)
				}
			}
		}
	}
}

// Sessions on different goroutines multiply against one shared weight
// matrix, in tiled passes and in row-kernel ones; run under -race this fails
// if the pack scratch were shared.
func TestGemmConcurrentSharedOperand(t *testing.T) {
	const n, k = 128, 317
	rng := rand.New(rand.NewSource(12))
	var wg sync.WaitGroup
	for _, p := range products {
		_, _, br, bc := p.shapes(0, n, k)
		shared := randomMatrix(rng, br, bc)
		for g := 0; g < 8; g++ {
			m := []int{16, 3}[g%2]
			ar, ac, _, _ := p.shapes(m, n, k)
			a := randomMatrix(rng, ar, ac)
			wg.Add(1)
			go func() {
				defer wg.Done()
				want := New(m, n)
				p.scalar(want, a, shared, 0, m, 0, n)
				for rep := 0; rep < 20; rep++ {
					if got := p.mul(nil, a, shared); firstBitDiff(got.Data, want.Data) >= 0 {
						t.Errorf("%s: concurrent product differs from the scalar reference", p.name)
						return
					}
				}
			}()
		}
	}
	wg.Wait()
}

func TestMulAliasPanics(t *testing.T) {
	for _, p := range products {
		for _, which := range []string{"a", "b"} {
			t.Run(p.name+"/"+which, func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Fatal("dst aliasing an operand must panic")
					}
				}()
				a, b := New(8, 8), New(8, 8)
				if which == "a" {
					p.mul(a, a, b)
				} else {
					p.mul(b, a, b)
				}
			})
		}
	}
}

// The Table-I dense layers (317→512, 512→128) at the batch sizes the serving
// engine produces (a fragmented batch is passes of one to three rows, a
// ragged one ends past its last whole tile), with a dense left operand and
// with the half-zero one a ReLU leaves (the scalar loops skip zeros, the
// kernels do not). dst is reused: run with -benchmem -cpu 1,2 to see that
// nothing is allocated per call beyond the goroutine fan-out.
func BenchmarkGemm(b *testing.B) {
	for _, layer := range [][2]int{{317, 512}, {512, 128}} {
		in, out := layer[0], layer[1]
		for _, batch := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 32, 64} {
			for _, zeros := range []float64{0, 0.5} {
				rng := rand.New(rand.NewSource(5))
				x, w, dy := New(batch, in), randomMatrix(rng, in, out), randomMatrix(rng, batch, out)
				fillOperand(rng, x, zeros, false)
				kind := "dense"
				if zeros > 0 {
					kind = "halfzero"
				}
				name := fmt.Sprintf("%dx%dx%d/%s", batch, in, out, kind)
				run := func(op string, dst, l, r *Matrix, mul func(dst, a, b *Matrix) *Matrix) {
					b.Run(op+"/"+name, func(b *testing.B) {
						b.ReportAllocs()
						for i := 0; i < b.N; i++ {
							mul(dst, l, r)
						}
						b.ReportMetric(2*float64(batch*in*out)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
					})
				}
				run("Mul", New(batch, out), x, w, Mul)   // forward
				run("MulT1", New(in, out), x, dy, MulT1) // weight gradient
				if zeros == 0 {
					run("MulT2", New(batch, in), dy, w, MulT2) // input gradient
				}
			}
		}
	}
}

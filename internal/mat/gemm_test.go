package mat

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// The contract of the GEMM driver: whatever mix of micro-kernel tiles,
// scalar edges and worker goroutines computes a product, every element has
// the bits the scalar loops alone give it. The scalar loops (mulRows,
// mulT1Rows, mulT2Rows) are the oracle.

// products lists the three entry points with the shapes of their operands
// for an m×n result reduced over k, and their scalar reference.
var products = []struct {
	name   string
	mul    func(dst, a, b *Matrix) *Matrix
	shapes func(m, n, k int) (ar, ac, br, bc int)
	scalar func(dst, a, b *Matrix, i0, i1, j0, j1 int)
}{
	{"Mul", Mul, func(m, n, k int) (int, int, int, int) { return m, k, k, n }, mulRows},
	{"MulT1", MulT1, func(m, n, k int) (int, int, int, int) { return k, m, k, n }, mulT1Rows},
	{"MulT2", MulT2, func(m, n, k int) (int, int, int, int) { return m, k, n, k }, mulT2Rows},
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
// with all three products and compares each against its scalar reference.
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
	// The Table-I layer shapes at full and ragged batch sizes, the narrow
	// output layer, products deeper than one panel, and degenerate ones.
	shapes := [][3]int{
		{64, 512, 317}, {64, 128, 512}, {64, 317, 512}, {317, 512, 64}, {64, 7, 128},
		{1, 512, 317}, {3, 512, 317}, {4, 8, 1}, {5, 9, 2}, {7, 15, 257}, {13, 23, 600},
		{0, 8, 8}, {8, 0, 8}, {8, 8, 0}, {1, 1, 1}, {4, 7, 300}, {3, 40, 40},
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
	f.Fuzz(func(t *testing.T, seed int64, m, n uint8, k uint16, wild bool) {
		checkBitIdentical(t, seed, int(m), int(n), int(k%(3*panelDepth)), wild)
	})
}

// Row i of a B-row product is the one-row product of row i: what lets the
// serving engine fuse requests into one pass without changing an answer.
func TestGemmRowsIndependentOfBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a, w := New(37, 317), New(317, 512)
	fillOperand(rng, a, 0.5, false)
	fillOperand(rng, w, 0, false)
	wt := w.T()
	batch, batchT2 := Mul(nil, a, w), MulT2(nil, a, wt)
	for i := 0; i < a.Rows; i++ {
		row := FromSlice(1, a.Cols, a.Row(i))
		if j := firstBitDiff(batch.Row(i), Mul(nil, row, w).Data); j >= 0 {
			t.Fatalf("Mul: row %d col %d differs between the batch and the single-row pass", i, j)
		}
		if j := firstBitDiff(batchT2.Row(i), MulT2(nil, row, wt).Data); j >= 0 {
			t.Fatalf("MulT2: row %d col %d differs between the batch and the single-row pass", i, j)
		}
	}
}

func TestGemmDeterministicAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	// Tiled shapes with ragged bottom and right edges, more and fewer panels
	// than workers, and one below the tile height.
	for _, s := range [][3]int{{67, 133, 300}, {9, 17, 4100}, {130, 9, 515}, {3, 200, 400}} {
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
// matrix; run under -race this fails if the pack scratch were shared.
func TestGemmConcurrentSharedOperand(t *testing.T) {
	const m, n, k = 16, 128, 317
	rng := rand.New(rand.NewSource(12))
	var wg sync.WaitGroup
	for _, p := range products {
		ar, ac, br, bc := p.shapes(m, n, k)
		shared := randomMatrix(rng, br, bc)
		for g := 0; g < 8; g++ {
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
// engine produces, with a dense left operand and with the half-zero one a
// ReLU leaves (the scalar loops skip zeros, the kernel does not). dst is
// reused: run with -benchmem -cpu 1,2 to see that nothing is allocated per
// call beyond the goroutine fan-out.
func BenchmarkGemm(b *testing.B) {
	for _, layer := range [][2]int{{317, 512}, {512, 128}} {
		in, out := layer[0], layer[1]
		for _, batch := range []int{1, 2, 4, 8, 32, 64} {
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

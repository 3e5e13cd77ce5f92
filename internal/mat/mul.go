package mat

import (
	"fmt"
	"math"
	"runtime"
	"sync"
)

// Shapes of the two micro-kernels. The tile kernel keeps a
// tileRows×tileCols block of the output in registers for a whole pass over
// k, fed by a packed panelDepth×tileCols panel of the right-hand operand
// (16 KiB, on the stack of the goroutine that packs it). The row kernel
// computes rowCols columns of one output row straight from b, rowColsT
// columns when b is read transposed.
const (
	tileRows   = 4
	tileCols   = 8
	panelDepth = 256
	rowCols    = 32
	rowColsT   = 16
)

// The measured constants of the driver; DESIGN.md has the numbers.
const (
	// tileFrom is the number of rows from which packing b into panels is
	// repaid by reusing each panel for every tile of rows, tileFromT the
	// same where b is read transposed (there the row kernel has the
	// transposing to do for every row, so packing wins sooner). Below it,
	// and for the rows past the last whole tile, the row kernel runs.
	tileFrom  = 12
	tileFromT = 8

	// minDepth is the length of the reduction below which no panel is
	// packed either: a shallow product (the weight gradient of a batch of a
	// few samples) is a few multiplies per output, and the tile kernel's
	// fixed cost per call and the packing are not repaid.
	minDepth = 6

	// parallelThreshold and rowParallelThreshold are the number of
	// multiply-adds below which a product runs on the calling goroutine,
	// for products shared out by column panels and by rows: fanning out
	// costs more than it saves.
	parallelThreshold    = 1 << 17
	rowParallelThreshold = 1 << 20
)

// The measured constants of skipping zeros (DESIGN.md has the numbers). A
// ReLU leaves most of a layer's activations, and of the gradient below it,
// at exactly zero, and a zero element of A adds ±0 to every sum it takes
// part in, which leaves the sum's bits unchanged (see mulRows).
const (
	// tileDenseFrom is the share, in eighths of a panel's steps, of steps
	// at which one of a tile's four rows of A is nonzero from which the
	// tile kernel runs over every step instead of over the list of those
	// steps. tileGroup is how many tiles' step lists are kept at once (on
	// the stack of the goroutine that runs them), so that a list is built
	// once per panel depth and not once per column panel.
	tileDenseFrom = 7
	tileGroup     = 16

	// rowDenseFrom is the share, in eighths of the elements of the first
	// row of A in a row-kernel range, of nonzero elements from which the
	// row kernel reads every row of b; below it each row lists its nonzero
	// elements (at most rowSkipCap, on the stack: a row with more runs
	// dense) and reads only their rows of b. One 512→128 row: listing wins
	// to about 55 % live. maskDenseFrom is the same for the live outputs of
	// a masked MulT2, whose rows are then never tiled: listing beats the
	// dense row kernel at any share but tiles only below about 30 %.
	rowDenseFrom  = 4
	rowSkipCap    = 256
	maskDenseFrom = 3
	maskChunk     = 256
)

// skipZeros turns the zero-skipping paths of the kernels off when false,
// for tests that compare the two.
var skipZeros = true

// Mul stores a·b into dst (allocating when dst is nil) and returns dst.
func Mul(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("mat: Mul: inner dims %d vs %d", a.Cols, b.Rows))
	}
	return gemm{op: opMul, a: a, b: b, m: a.Rows, n: b.Cols, k: a.Cols}.run(dst)
}

// MulT1 stores aᵀ·b into dst (allocating when dst is nil) without
// materializing the transpose of a, and returns dst.
func MulT1(dst, a, b *Matrix) *Matrix {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("mat: MulT1: inner dims %d vs %d", a.Rows, b.Rows))
	}
	return gemm{op: opMulT1, a: a, b: b, m: a.Cols, n: b.Cols, k: a.Rows}.run(dst)
}

// MulT2 stores a·bᵀ into dst (allocating when dst is nil) without
// materializing the transpose of b, and returns dst.
func MulT2(dst, a, b *Matrix) *Matrix {
	return MulT2Masked(dst, a, b, nil)
}

// MulT2Masked stores a·bᵀ into dst where mask is nonzero and +0 where it is
// zero, and returns dst; a nil mask is MulT2. The masked-out elements are
// not computed. It is the input gradient of a dense layer whose input is a
// ReLU's output (the mask): the ReLU's backward zeroes those elements
// anyway. mask has dst's shape and must not be dst.
func MulT2Masked(dst, a, b, mask *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("mat: MulT2: inner dims %d vs %d", a.Cols, b.Cols))
	}
	if mask != nil && (mask.Rows != a.Rows || mask.Cols != b.Rows) {
		panic(fmt.Sprintf("mat: MulT2Masked: mask %dx%d for a %dx%d product", mask.Rows, mask.Cols, a.Rows, b.Rows))
	}
	return gemm{op: opMulT2, a: a, b: b, mask: mask, m: a.Rows, n: b.Rows, k: a.Cols}.run(dst)
}

type gemmOp uint8

const (
	opMul gemmOp = iota
	opMulT1
	opMulT2
)

func (op gemmOp) String() string { return [...]string{"Mul", "MulT1", "MulT2"}[op] }

// gemm is one product dst = A·B with A m×k and B k×n, where op says how A
// and B are read out of a and b. Every element of dst is the sum over k,
// in index order and starting from +0, of separately rounded products;
// which code computes an element (either micro-kernel or the scalar loops,
// on which goroutine, skipping the zeros of A or not) never changes its bits
// for finite operands. A MulT2 may carry a mask of dst's shape: dst is +0
// wherever the mask is.
type gemm struct {
	op              gemmOp
	dst, a, b, mask *Matrix
	m, n, k         int

	// maskRows is set when the mask's first row is sparse enough
	// (maskDenseFrom) for every row to compute only its live outputs
	// (maskedRow): rows are then not tiled, whatever their number.
	maskRows bool
}

// run checks dst and computes the product into it, on one goroutine
// when it is small and otherwise sharded over GOMAXPROCS workers that each
// own a disjoint block of dst.
func (g gemm) run(dst *Matrix) *Matrix {
	dst = ensureShape(dst, g.m, g.n)
	if dst == g.a || dst == g.b || dst == g.mask {
		panic(fmt.Sprintf("mat: %v: dst must not alias an operand", g.op))
	}
	g.dst = dst
	g.maskRows = g.mask != nil && haveKernel && skipZeros && g.m > 0 && g.n >= rowColsT && g.k > 0 &&
		8*countLive(g.mask.Data, 1, g.n) < maskDenseFrom*g.n

	units, threshold := g.m, rowParallelThreshold
	if g.tiled() {
		// Column panels, so that no panel is packed twice.
		units, threshold = g.n/tileCols, parallelThreshold
	}
	workers := min(runtime.GOMAXPROCS(0), units)
	if workers <= 1 || g.m*g.n*g.k < threshold {
		g.share(0, units)
		return dst
	}
	// The calling goroutine computes the last share itself.
	chunk := (units + workers - 1) / workers
	var wg sync.WaitGroup
	lo := 0
	for ; lo+chunk < units; lo += chunk {
		wg.Add(1)
		go g.shareAndDone(lo, lo+chunk, &wg)
	}
	g.share(lo, units)
	wg.Wait()
	return dst
}

// shareAndDone is share on a worker goroutine. Its receiver is a copy, so
// that the go statement copies g and run's g stays on the stack.
func (g gemm) shareAndDone(lo, hi int, wg *sync.WaitGroup) {
	g.share(lo, hi)
	wg.Done()
}

// tiled reports whether the product is worth packing panels for. It then is
// shared out by column panels, and otherwise by rows.
func (g *gemm) tiled() bool {
	from := tileFrom
	if g.op == opMulT2 {
		from = tileFromT
	}
	return haveKernel && !g.maskRows && g.m >= from && g.n >= tileCols && g.k >= minDepth
}

// share computes units [lo, hi) of the product. The one shape rule: whole
// tiles go to the tile kernel on packed panels; the rows of a product too
// short to tile and the rows past the last whole tile go to the row kernel;
// the columns past the last panel, like everything on a machine without the
// kernels, go to the scalar loops.
func (g *gemm) share(lo, hi int) {
	if !g.tiled() {
		g.rows(lo, hi, 0, g.n)
		return
	}
	j0, jt, j1 := lo*tileCols, hi*tileCols, hi*tileCols
	if hi == g.n/tileCols {
		j1 = g.n
	}
	it := g.m / tileRows * tileRows
	g.tiles(it, j0, jt)
	g.maskOut(0, it, j0, jt)
	g.rows(it, g.m, j0, jt)
	g.scalar(0, g.m, jt, j1)
}

// rows computes dst[i0:i1, j0:j1] one output row at a time with the row
// kernel, which needs no panel: it reads the rows of b in place. The kernel
// computes whole blocks of columns, so the last block is placed flush with
// j1 and recomputes the columns it shares with the one before it, from the
// same operands to the same bits. A range narrower than one block is left
// to the scalar loops. Rows of A that are mostly zeros are reduced over
// their nonzero elements only (sparseRow), and so are only the outputs of a
// masked MulT2 that its mask leaves (maskedRow).
func (g *gemm) rows(i0, i1, j0, j1 int) {
	if i0 >= i1 {
		return
	}
	w := rowCols
	if g.op == opMulT2 {
		w = rowColsT
	}
	if !haveKernel || j1-j0 < w || g.k == 0 {
		g.scalar(i0, i1, j0, j1)
		return
	}
	switch {
	case g.maskRows:
		for i := i0; i < i1; i++ {
			g.maskedRow(i, j0, j1)
		}
		return
	case skipZeros && g.op != opMulT2 && len(g.b.Data) <= math.MaxInt32 && g.sparse(i0):
		for i := i0; i < i1; i++ {
			g.sparseRow(i, j0, j1)
		}
		return
	}
	aRow, aK := g.aStrides()
	ldb := g.b.Cols
	for j := j0; j < j1; j += w {
		j = min(j, j1-w)
		for i := i0; i < i1; i++ {
			c, a := g.dst.Data[i*g.n+j:], g.a.Data[i*aRow:]
			if g.op == opMulT2 {
				rowT(c, a, g.b.Data[j*ldb:], ldb, g.k)
			} else {
				row(c, a, aK, g.b.Data[j:], ldb, g.k)
			}
		}
	}
	g.maskOut(i0, i1, j0, j1)
}

// sparse reports whether fewer than rowDenseFrom eighths of the elements of
// row i of A are nonzero. The rows of a range are alike — the activations
// of one ReLU — so the first one decides for all of them.
func (g *gemm) sparse(i int) bool {
	aRow, aK := g.aStrides()
	return 8*countLive(g.a.Data[i*aRow:], aK, g.k) < rowDenseFrom*g.k
}

// countLive counts the nonzero elements among n of data, step apart.
func countLive(data []float64, step, n int) int {
	live := 0
	for k := 0; k < n; k++ {
		live += nonzero(data[k*step])
	}
	return live
}

// nonzero is 1 for a nonzero v (NaN included) and 0 for ±0, without a
// branch: whether an activation is zero is a coin toss the predictor loses.
func nonzero(v float64) int {
	b := math.Float64bits(v) << 1
	return int((b | -b) >> 63)
}

// sparseRow computes dst[i, j0:j1] of a Mul or MulT1 with the row kernel
// over the nonzero elements of row i of A only, listed once for all blocks
// of columns; a row with more than rowSkipCap of them runs dense.
func (g *gemm) sparseRow(i, j0, j1 int) {
	aRow, aK := g.aStrides()
	ldb := g.b.Cols
	a, c := g.a.Data[i*aRow:], g.dst.Data[i*g.n:]
	var vals [rowSkipCap + 1]float64
	var offs [rowSkipCap + 1]int32
	n := 0
	for k := 0; k < g.k; k++ {
		v := a[k*aK]
		vals[n], offs[n] = v, int32(k*ldb)
		if n += nonzero(v); n > rowSkipCap {
			for j := j0; j < j1; j += rowCols {
				j = min(j, j1-rowCols)
				row(c[j:], a, aK, g.b.Data[j:], ldb, g.k)
			}
			return
		}
	}
	if n == 0 {
		clear(c[j0:j1])
		return
	}
	for j := j0; j < j1; j += rowCols {
		j = min(j, j1-rowCols)
		rowSkip(c[j:], vals[:n], g.b.Data[j:], offs[:n], ldb, g.k)
	}
}

// maskedRow computes dst[i, j0:j1] of a masked MulT2: +0 where the mask is
// zero, and the others eight at a time, each a dot product of row i of a
// with a row of b, maskChunk columns per list.
func (g *gemm) maskedRow(i, j0, j1 int) {
	ldb := g.b.Cols
	a := g.a.Data[i*g.k : (i+1)*g.k]
	mask, c := g.mask.Data[i*g.n:], g.dst.Data[i*g.n:]
	var outs [maskChunk + 7]uint8
	for j := j0; j < j1; j += maskChunk {
		je := min(j+maskChunk, j1)
		n := 0
		for jj := j; jj < je; jj++ {
			outs[n] = uint8(jj - j)
			n += nonzero(mask[jj])
			c[jj] = 0
		}
		if n == 0 {
			continue
		}
		for last := outs[n-1]; n%8 != 0; n++ {
			outs[n] = last
		}
		dotsT(c[j:], a, g.b.Data[j*ldb:], ldb, g.k, outs[:n])
	}
}

// maskOut stores +0 into dst[i0:i1, j0:j1] wherever the mask is zero (a
// product without a mask is left as it is).
func (g *gemm) maskOut(i0, i1, j0, j1 int) {
	if g.mask == nil {
		return
	}
	for i := i0; i < i1; i++ {
		c := g.dst.Data[i*g.n+j0 : i*g.n+j1]
		for j, v := range g.mask.Data[i*g.n+j0 : i*g.n+j1] {
			c[j] = math.Float64frombits(math.Float64bits(c[j]) & -uint64(nonzero(v)))
		}
	}
}

// aStrides is how both kernels walk A in a: element (i, k) is at
// a.Data[i*aRow+k*aK].
func (g *gemm) aStrides() (aRow, aK int) {
	if g.op == opMulT1 {
		return 1, g.a.Cols
	}
	return g.a.Cols, 1
}

// tiles computes dst[0:m, j0:j1], a whole number of tiles. Each panel of
// B is packed once per group of tileGroup row tiles and reused for every
// tile of the group. A product deeper than panelDepth takes several passes;
// a later pass picks the partial sums up from dst, which continues the same
// in-order reduction. Per pass, each tile lists the steps at which one of
// its rows of A is nonzero, and the tile kernel runs over those steps only
// unless nearly all of them are (tileDenseFrom); a tile with none is +0
// after the first pass and left as it is after a later one. When nearly all
// of the first tile's first steps are live, A is taken to be dense (its rows
// are alike) and no tile lists its steps.
func (g *gemm) tiles(m, j0, j1 int) {
	aRow, aK := g.aStrides()
	var panel [panelDepth * tileCols]float64
	var steps [tileGroup][panelDepth]uint8
	var live [tileGroup]int
	kn0 := min(panelDepth, g.k)
	list := skipZeros && m > 0 && 8*liveSteps(&steps[0], g.a.Data, aRow, aK, kn0) < tileDenseFrom*kn0
	for i0 := 0; i0 < m; i0 += tileGroup * tileRows {
		i1 := min(i0+tileGroup*tileRows, m)
		for k0 := 0; k0 < g.k; k0 += panelDepth {
			kn := min(panelDepth, g.k-k0)
			for t, i := 0, i0; i < i1; t, i = t+1, i+tileRows {
				live[t] = kn
				if list {
					live[t] = liveSteps(&steps[t], g.a.Data[i*aRow+k0*aK:], aRow, aK, kn)
				}
			}
			for j := j0; j < j1; j += tileCols {
				if g.op == opMulT2 {
					packT(panel[:kn*tileCols], g.b, k0, j)
				} else {
					pack(panel[:kn*tileCols], g.b, k0, j)
				}
				for t, i := 0, i0; i < i1; t, i = t+1, i+tileRows {
					c, a := g.dst.Data[i*g.n+j:], g.a.Data[i*aRow+k0*aK:]
					switch n := live[t]; {
					case 8*n >= tileDenseFrom*kn:
						tile(c, g.n, a, aRow, aK, panel[:], kn, k0 > 0)
					case n > 0:
						tileSkip(c, g.n, a, aRow, aK, panel[:], kn, steps[t][:n], k0 > 0)
					case k0 == 0:
						for r := 0; r < tileRows; r++ {
							clear(c[r*g.n : r*g.n+tileCols])
						}
					}
				}
			}
		}
	}
}

// liveSteps lists in steps, and counts, the k < kn at which one of the
// four rows of A that start at a (element (r, k) at a[r*aRow+k*aK]) is
// nonzero.
func liveSteps(steps *[panelDepth]uint8, a []float64, aRow, aK, kn int) int {
	_ = a[(tileRows-1)*aRow+(kn-1)*aK]
	n := 0
	for k := 0; k < kn; k++ {
		o := k * aK
		bits := math.Float64bits(a[o]) | math.Float64bits(a[o+aRow]) | math.Float64bits(a[o+2*aRow]) | math.Float64bits(a[o+3*aRow])
		steps[n] = uint8(k)
		n += nonzero(math.Float64frombits(bits))
	}
	return n
}

// pack copies b[k0:k0+kn, j:j+tileCols] into panel, k-major. Packing is
// what makes the kernel's k loop read consecutive cache lines: a column
// panel of a 512-wide b would touch one line per 4 KiB page and keep
// hitting the same cache set.
func pack(panel []float64, b *Matrix, k0, j int) {
	src := k0*b.Cols + j
	for o := 0; o < len(panel); o += tileCols {
		p, s := (*[tileCols]float64)(panel[o:]), (*[tileCols]float64)(b.Data[src:])
		p[0], p[1], p[2], p[3], p[4], p[5], p[6], p[7] = s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]
		src += b.Cols
	}
}

// packT copies the transpose of b[j:j+tileCols, k0:k0+kn] into panel,
// k-major: the panel of bᵀ that MulT2 multiplies by.
func packT(panel []float64, b *Matrix, k0, j int) {
	kn := len(panel) / tileCols
	for jj := 0; jj < tileCols; jj++ {
		row := b.Data[(j+jj)*b.Cols+k0:][:kn]
		for kk, v := range row {
			panel[kk*tileCols+jj] = v
		}
	}
}

// scalar computes dst[i0:i1, j0:j1] with the scalar loops of the product.
func (g *gemm) scalar(i0, i1, j0, j1 int) {
	if i0 >= i1 || j0 >= j1 {
		return
	}
	switch g.op {
	case opMul:
		mulRows(g.dst, g.a, g.b, i0, i1, j0, j1)
	case opMulT1:
		mulT1Rows(g.dst, g.a, g.b, i0, i1, j0, j1)
	case opMulT2:
		mulT2Rows(g.dst, g.a, g.b, i0, i1, j0, j1)
		g.maskOut(i0, i1, j0, j1)
	}
}

// mulRows stores rows [i0, i1), columns [j0, j1) of a·b into dst. It uses the
// i-k-j loop order so the inner loop streams over contiguous rows of b and
// dst. Skipping a zero element of a leaves the bits of the sum unchanged
// when b is finite (the skipped product is ±0 and the sum, which starts at
// +0, is never −0), which is why the kernel, which does not skip, still
// agrees with it.
func mulRows(dst, a, b *Matrix, i0, i1, j0, j1 int) {
	n := b.Cols
	for i := i0; i < i1; i++ {
		drow := dst.Row(i)[j0:j1]
		clear(drow)
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			axpyTo(av, b.Data[k*n+j0:k*n+j1], drow)
		}
	}
}

// mulT1Rows stores rows [i0, i1), columns [j0, j1) of aᵀ·b into dst.
func mulT1Rows(dst, a, b *Matrix, i0, i1, j0, j1 int) {
	n := b.Cols
	for i := i0; i < i1; i++ {
		drow := dst.Row(i)[j0:j1]
		clear(drow)
		for k := 0; k < a.Rows; k++ {
			av := a.Data[k*a.Cols+i]
			if av == 0 {
				continue
			}
			axpyTo(av, b.Data[k*n+j0:k*n+j1], drow)
		}
	}
}

// mulT2Rows stores rows [i0, i1), columns [j0, j1) of a·bᵀ into dst.
func mulT2Rows(dst, a, b *Matrix, i0, i1, j0, j1 int) {
	for i := i0; i < i1; i++ {
		arow := a.Row(i)
		drow := dst.Row(i)
		for j := j0; j < j1; j++ {
			drow[j] = Dot(arow, b.Row(j))
		}
	}
}

// Dot returns the inner product of equal-length vectors a and b.
//
// The loop is unrolled four-wide with a single accumulator added to in
// index order, so the result is bitwise identical to the scalar loop (the
// unroll only removes bounds checks and loop overhead, it does not reorder
// the floating-point reduction).
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("mat: Dot: len %d vs %d", len(a), len(b)))
	}
	var s float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		a4 := a[i : i+4 : i+4]
		b4 := b[i : i+4 : i+4]
		s += a4[0] * b4[0]
		s += a4[1] * b4[1]
		s += a4[2] * b4[2]
		s += a4[3] * b4[3]
	}
	for ; i < len(a); i++ {
		s += a[i] * b[i]
	}
	return s
}

// Axpy computes y += alpha*x in place.
func Axpy(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("mat: Axpy: len %d vs %d", len(x), len(y)))
	}
	axpyTo(alpha, x, y)
}

// axpyTo is the unchecked axpy kernel behind Axpy and the Mul inner loops:
// y[j] += alpha*x[j] for j < len(x), with len(y) >= len(x) assumed. The
// four-wide unroll updates independent elements, so results are bitwise
// identical to the scalar loop while giving the CPU four parallel
// multiply-add chains per iteration.
func axpyTo(alpha float64, x, y []float64) {
	i := 0
	for ; i+4 <= len(x); i += 4 {
		x4 := x[i : i+4 : i+4]
		y4 := y[i : i+4 : i+4]
		y4[0] += alpha * x4[0]
		y4[1] += alpha * x4[1]
		y4[2] += alpha * x4[2]
		y4[3] += alpha * x4[3]
	}
	for ; i < len(x); i++ {
		y[i] += alpha * x[i]
	}
}

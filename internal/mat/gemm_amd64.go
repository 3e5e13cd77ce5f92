package mat

// haveKernel reports whether the AVX2 micro-kernels may run: the CPU has
// AVX2 and the OS saves the YMM state (OSXSAVE, then XCR0 bits 1 and 2).
var haveKernel = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave, avx = 1 << 27, 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 || xgetbv0()&6 != 6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}()

// tile stores the tileRows×tileCols product of four rows of A (element
// (i, k) at a[i*aRow+k*aK]) and a packed kn×tileCols panel into the tile of
// the output that starts at c[0], ldc elements per row; with resume it adds
// the product to what the tile holds. The assembly checks nothing, so the
// last element each operand will be addressed at is touched here first.
func tile(c []float64, ldc int, a []float64, aRow, aK int, panel []float64, kn int, resume bool) {
	_ = c[(tileRows-1)*ldc+tileCols-1]
	_ = a[(tileRows-1)*aRow+(kn-1)*aK]
	_ = panel[kn*tileCols-1]
	kernel4x8(&c[0], ldc, &a[0], aRow, aK, &panel[0], kn, resume)
}

// row stores into c[0:rowCols] the product of one row of A (element k at
// a[k*aK]) and the kn×rowCols block of b that starts at b[0], ldb elements
// per row. As in tile, Go touches what the assembly will address.
func row(c, a []float64, aK int, b []float64, ldb, kn int) {
	_ = c[rowCols-1]
	_ = a[(kn-1)*aK]
	_ = b[(kn-1)*ldb+rowCols-1]
	kernel1x32(&c[0], &a[0], aK, &b[0], ldb, kn)
}

// rowT stores into c[0:rowColsT] the product of a[0:kn] and the transpose of
// the rowColsT×kn block of b that starts at b[0], ldb elements per row.
func rowT(c, a, b []float64, ldb, kn int) {
	_ = c[rowColsT-1]
	_ = a[kn-1]
	_ = b[(rowColsT-1)*ldb+kn-1]
	kernel1x16T(&c[0], &a[0], &b[0], ldb, kn)
}

//go:noescape
func kernel4x8(c *float64, ldc int, a *float64, aRow, aK int, panel *float64, kn int, resume bool)

//go:noescape
func kernel1x32(c, a *float64, aK int, b *float64, ldb, kn int)

//go:noescape
func kernel1x16T(c, a, b *float64, ldb, kn int)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32

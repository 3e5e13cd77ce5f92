package mat

// haveKernel reports whether the AVX2 micro-kernel may run: the CPU has
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

//go:noescape
func kernel4x8(c *float64, ldc int, a *float64, aRow, aK int, panel *float64, kn int, resume bool)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() uint32

//go:build !amd64

package mat

// haveKernel is false where there are no assembly micro-kernels: every
// product runs the scalar loops.
const haveKernel = false

func tile(c []float64, ldc int, a []float64, aRow, aK int, panel []float64, kn int, resume bool) {
	panic("mat: no micro-kernel on this architecture")
}

func row(c, a []float64, aK int, b []float64, ldb, kn int) {
	panic("mat: no micro-kernel on this architecture")
}

func rowT(c, a, b []float64, ldb, kn int) {
	panic("mat: no micro-kernel on this architecture")
}

func tileSkip(c []float64, ldc int, a []float64, aRow, aK int, panel []float64, kn int, steps []uint8, resume bool) {
	panic("mat: no micro-kernel on this architecture")
}

func rowSkip(c, vals, b []float64, offs []int32, ldb, kn int) {
	panic("mat: no micro-kernel on this architecture")
}

func dotsT(c, a, b []float64, ldb, kn int, outs []uint8) {
	panic("mat: no micro-kernel on this architecture")
}

//go:build !amd64

package mat

// haveKernel is false where there is no assembly micro-kernel: every
// product runs the scalar loops.
const haveKernel = false

func tile(c []float64, ldc int, a []float64, aRow, aK int, panel []float64, kn int, resume bool) {
	panic("mat: no micro-kernel on this architecture")
}

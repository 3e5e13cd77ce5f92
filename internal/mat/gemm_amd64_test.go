package mat

import (
	"math/rand"
	"testing"
)

// The same products with the kernels on and off: the machine that has them
// and the one that does not serve the same diagnosis, to the bit. Every
// Table-I product runs at the sizes of fragmented and ragged passes, so that
// all three of tile kernel, row kernel and scalar edge take part.
func TestGemmKernelsOffAndOnBitIdentical(t *testing.T) {
	if !haveKernel {
		t.Skip("no AVX2: the scalar loops are the only path on this machine")
	}
	defer func() { haveKernel = true }()
	rng := rand.New(rand.NewSource(13))
	for _, rows := range []int{1, 2, 3, 5, 7, 9, 13, 64} {
		for _, nk := range [][2]int{{512, 317}, {128, 512}, {7, 128}, {128, 7}, {512, 128}, {317, 512}} {
			for _, p := range products {
				ar, ac, br, bc := p.shapes(rows, nk[0], nk[1])
				a, b := New(ar, ac), New(br, bc)
				fillOperand(rng, a, 0.5, true)
				fillOperand(rng, b, 0.05, true)
				haveKernel = true
				on := p.mul(nil, a, b)
				haveKernel = false
				off := p.mul(nil, a, b)
				if i := firstBitDiff(on.Data, off.Data); i >= 0 {
					t.Fatalf("%s %dx%dx%d: element (%d,%d) differs with the kernels on and off",
						p.name, rows, nk[0], nk[1], i/nk[0], i%nk[0])
				}
			}
		}
	}
}

package mat

import (
	"math/rand"
	"testing"
)

// The same products with the kernels on and off, and with the kernels'
// zero skipping on and off: the machine that has them and the one that does
// not serve the same diagnosis, to the bit. Every Table-I product runs at
// the sizes of fragmented and ragged passes, so that all three of tile
// kernel, row kernel and scalar edge take part, on half-zero operands and
// on ReLU-shaped ones, and every result is compared with the naive loop.
func TestGemmKernelsOffAndOnBitIdentical(t *testing.T) {
	if !haveKernel {
		t.Skip("no AVX2: the scalar loops are the only path on this machine")
	}
	defer func() { haveKernel, skipZeros = true, true }()
	modes := []struct {
		name              string
		kernels, skipping bool
	}{{"kernels", true, true}, {"kernels without skipping", true, false}, {"scalar loops", false, true}}
	rng := rand.New(rand.NewSource(13))
	for _, rows := range []int{1, 2, 3, 5, 7, 9, 13, 64} {
		for _, nk := range [][2]int{{512, 317}, {128, 512}, {7, 128}, {128, 7}, {512, 128}, {317, 512}} {
			n, k := nk[0], nk[1]
			for _, zeros := range []float64{0.5, reluShare} {
				for _, p := range products {
					ar, ac, br, bc := p.shapes(rows, n, k)
					a, b := New(ar, ac), New(br, bc)
					aI, aK, bK, bJ := p.strides(a, b)
					fillA(rng, a, rows, k, aI, aK, zeros, zeros < reluShare)
					fillOperand(rng, b, 0.05, true)
					want := naive(a, b, rows, n, k, aI, aK, bK, bJ)
					var mask *Matrix
					if p.name == "MulT2" {
						mask = maskOf(rng, rows, n, zeros)
					}
					for _, m := range modes {
						haveKernel, skipZeros = m.kernels, m.skipping
						if i := firstBitDiff(p.mul(nil, a, b).Data, want.Data); i >= 0 {
							t.Fatalf("%s %dx%dx%d, %.2f zeros, %s: element (%d,%d) differs from the naive loop",
								p.name, rows, n, k, zeros, m.name, i/n, i%n)
						}
						if mask == nil {
							continue
						}
						got := MulT2Masked(nil, a, b, mask)
						for i, v := range mask.Data {
							if v == 0 && (got.Data[i] != 0 || 1/got.Data[i] < 0) || v != 0 && firstBitDiff(got.Data[i:i+1], want.Data[i:i+1]) >= 0 {
								t.Fatalf("MulT2Masked %dx%dx%d, %.2f zeros, %s: element (%d,%d) = %v, mask %v, naive %v",
									rows, n, k, zeros, m.name, i/n, i%n, got.Data[i], v, want.Data[i])
							}
						}
					}
				}
			}
		}
	}
}

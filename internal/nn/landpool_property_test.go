package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"diagnet/internal/mat"
)

// The paper's root-cause extensibility claim (§III-C) rests on two
// structural invariants of LandPool, pinned here as randomized properties
// across kernels, layouts and op sets:
//
//  1. Landmark permutation invariance — every Ω is commutative across the
//     landmark axis, so reordering a sample's landmark blocks must not
//     change the layer output.
//  2. Subset consistency — the output on a landmark subset equals pooling
//     the per-landmark filter activations of exactly that subset (the
//     convolution is per-landmark independent), and the order-statistic
//     ops obey the induced bounds: min grows, max shrinks, avg and every
//     percentile stay inside the full set's [min, max] envelope.
//
// Together these are what lets landmarks appear or disappear between
// training and inference without architectural change.

const propTol = 1e-9

// randomOps draws a nonempty op set that always includes the four ops the
// subset-bound checks name, plus a few random percentiles.
func randomOps(rng *rand.Rand) []string {
	ops := []string{"min", "max", "avg", "var"}
	for n := rng.Intn(4); n > 0; n-- {
		ops = append(ops, fmt.Sprintf("p%02d", rng.Intn(99)+1))
	}
	return ops
}

// pool runs the ops named over vals through a one-filter LandPool whose
// kernel is 1 and bias 0, so that each activation is its value: out[o] is
// op o over vals and, given the output gradients g, dvals is what the ops
// route back onto vals.
func pool(names []string, vals, g []float64) (out, dvals []float64) {
	lp := NewLandPool(1, 1, 0, names, rand.New(rand.NewSource(1)))
	lp.Kernel.Value.Data[0] = 1
	out = slices.Clone(lp.Forward(mat.FromRows([][]float64{vals})).Data)
	if g != nil {
		dvals = lp.Backward(mat.FromRows([][]float64{g})).Data
	}
	return out, dvals
}

// randomLayer draws a LandPool with Glorot-initialized kernel plus a
// random non-zero bias (a zero bias would mask bias-handling bugs).
func randomLayer(rng *rand.Rand, k, f, local int, ops []string) *LandPool {
	lp := NewLandPool(k, f, local, ops, rng)
	for i := range lp.Bias.Value.Data {
		lp.Bias.Value.Data[i] = rng.NormFloat64()
	}
	return lp
}

// randomInput draws an n×(ell·k+local) input matrix.
func randomInput(rng *rand.Rand, n, ell, k, local int) *mat.Matrix {
	x := mat.New(n, ell*k+local)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64() * 3
	}
	return x
}

// activations computes the per-landmark filter activations of one row the
// straightforward way (kernel·x_λ + bias), independently of the layer's
// fused loop: act[λ][fi].
func activations(lp *LandPool, row []float64, ell int) [][]float64 {
	act := make([][]float64, ell)
	for l := 0; l < ell; l++ {
		xl := row[l*lp.K : (l+1)*lp.K]
		act[l] = make([]float64, lp.F)
		for fi := 0; fi < lp.F; fi++ {
			act[l][fi] = mat.Dot(lp.Kernel.Value.Row(fi), xl) + lp.Bias.Value.Data[fi]
		}
	}
	return act
}

// TestLandPoolPermutationInvariance: shuffling the landmark blocks of every
// row (each row with its own permutation) leaves the output unchanged.
func TestLandPoolPermutationInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	for trial := 0; trial < 60; trial++ {
		k := rng.Intn(4) + 1
		f := rng.Intn(5) + 1
		local := rng.Intn(4)
		ell := rng.Intn(7) + 2
		n := rng.Intn(3) + 1
		lp := randomLayer(rng, k, f, local, randomOps(rng))
		x := randomInput(rng, n, ell, k, local)

		perm := mat.New(x.Rows, x.Cols)
		for s := 0; s < n; s++ {
			row, prow := x.Row(s), perm.Row(s)
			p := rng.Perm(ell)
			for l, src := range p {
				copy(prow[l*k:(l+1)*k], row[src*k:(src+1)*k])
			}
			copy(prow[ell*k:], row[ell*k:]) // locals keep their position
		}

		base := lp.Forward(x)
		permuted := lp.Forward(perm)
		for i := range base.Data {
			if d := math.Abs(base.Data[i] - permuted.Data[i]); d > propTol {
				t.Fatalf("trial %d (k=%d f=%d local=%d ell=%d): output[%d] moved %g under landmark permutation",
					trial, k, f, local, ell, i, d)
			}
		}
	}
}

// TestLandPoolSubsetConsistency: the layer's output on a subset of
// landmarks equals pooling the subset's independently computed
// activations, and the order-statistic outputs respect the full set's
// envelope.
func TestLandPoolSubsetConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(402))
	for trial := 0; trial < 60; trial++ {
		k := rng.Intn(4) + 1
		f := rng.Intn(5) + 1
		local := rng.Intn(4)
		ell := rng.Intn(6) + 3
		ops := randomOps(rng)
		lp := randomLayer(rng, k, f, local, ops)
		x := randomInput(rng, 1, ell, k, local)
		row := x.Row(0)

		// Random proper subset, at least one landmark, order preserved.
		subset := rng.Perm(ell)[:rng.Intn(ell-1)+1]
		insertionArgsortInts(subset)
		sub := mat.New(1, len(subset)*k+local)
		srow := sub.Row(0)
		for i, l := range subset {
			copy(srow[i*k:(i+1)*k], row[l*k:(l+1)*k])
		}
		copy(srow[len(subset)*k:], row[ell*k:])

		full := lp.Forward(x)
		frow := append([]float64(nil), full.Row(0)...) // Forward reuses caches; keep a copy
		subOut := lp.Forward(sub)
		orow := subOut.Row(0)

		if got, want := len(orow), len(ops)*f+local; got != want {
			t.Fatalf("trial %d: subset output width %d, want %d (width must not depend on ell)", trial, got, want)
		}

		// Reference: pool the subset's activations directly.
		act := activations(lp, row, ell)
		vals := make([]float64, len(subset))
		for fi := 0; fi < f; fi++ {
			for i, l := range subset {
				vals[i] = act[l][fi]
			}
			direct, _ := pool(ops, vals, nil)
			for o, op := range ops {
				want := direct[o]
				got := orow[o*f+fi]
				if math.Abs(got-want) > propTol {
					t.Fatalf("trial %d: op %s filter %d: layer says %g, direct pooling of subset activations says %g",
						trial, op, fi, got, want)
				}
			}
		}

		// Envelope bounds against the full landmark set.
		for o, op := range ops {
			for fi := 0; fi < f; fi++ {
				fullMin := frow[opIndex(ops, "min")*f+fi]
				fullMax := frow[opIndex(ops, "max")*f+fi]
				v := orow[o*f+fi]
				switch op {
				case "min":
					if v < fullMin-propTol {
						t.Fatalf("trial %d: subset min %g below full min %g", trial, v, fullMin)
					}
				case "max":
					if v > fullMax+propTol {
						t.Fatalf("trial %d: subset max %g above full max %g", trial, v, fullMax)
					}
				case "avg":
					if v < fullMin-propTol || v > fullMax+propTol {
						t.Fatalf("trial %d: subset avg %g outside full envelope [%g, %g]", trial, v, fullMin, fullMax)
					}
				case "var": // a spread, not one of the values: no envelope
				default: // a percentile
					if v < fullMin-propTol || v > fullMax+propTol {
						t.Fatalf("trial %d: subset %s %g outside full envelope [%g, %g]",
							trial, op, v, fullMin, fullMax)
					}
				}
			}
		}

		// Locals pass through untouched regardless of the subset.
		for i := 0; i < local; i++ {
			if got, want := orow[len(ops)*f+i], row[ell*k+i]; got != want {
				t.Fatalf("trial %d: local %d = %g, want passthrough %g", trial, i, got, want)
			}
		}
	}
}

// TestLandPoolPercentileLadderMonotone: on any fixed input, percentiles
// must be monotone in P — an ordering property the interpolation could
// silently break — and run from the smallest value (p00, min) to the
// largest (p100, max).
func TestLandPoolPercentileLadderMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(403))
	ladder := []string{"min", "p00", "max", "p100"}
	for p := 5; p <= 95; p += 5 {
		ladder = append(ladder, fmt.Sprintf("p%02d", p))
	}
	for trial := 0; trial < 40; trial++ {
		ell := rng.Intn(8) + 1
		vals := make([]float64, ell)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		out, _ := pool(ladder, vals, nil)
		prev := math.Inf(-1)
		for o := 4; o < len(ladder); o++ {
			if out[o] < prev-propTol {
				t.Fatalf("trial %d: %s = %g < %s = %g (not monotone)", trial, ladder[o], out[o], ladder[o-1], prev)
			}
			prev = out[o]
		}
		lo, hi := slices.Min(vals), slices.Max(vals)
		for o, want := range []float64{lo, lo, hi, hi} {
			if out[o] != want {
				t.Fatalf("trial %d: %s = %g, want %g", trial, ladder[o], out[o], want)
			}
		}
	}
	// At an exact rank a percentile reads the one value there, so an
	// infinite activation pools to itself and not to ∞·0 = NaN.
	inf := []float64{math.Inf(1), 1, math.Inf(-1)}
	out, _ := pool([]string{"min", "p00", "p50", "p100", "max"}, inf, nil)
	if want := []float64{inf[2], inf[2], 1, inf[0], inf[0]}; !slices.Equal(out, want) {
		t.Fatalf("min, p00, p50, p100, max of %v = %v, want %v", inf, out, want)
	}
}

// opIndex finds the position of a named op in the set (the test always
// includes min/max/avg).
func opIndex(ops []string, name string) int {
	if i := slices.Index(ops, name); i >= 0 {
		return i
	}
	panic(fmt.Sprintf("op %s not in set", name))
}

// insertionArgsortInts sorts a small int slice ascending in place.
func insertionArgsortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

package nn

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"testing"

	"diagnet/internal/mat"
)

// The reference Ω (PAPER.md §1, Table I), written one scalar at a time
// from the definitions and sharing no code with LandPool's pooling: a
// percentile interpolates linearly between the closest ranks of a sorted
// copy, min and max are that copy's ends, avg is the mean and var the
// population variance, both taken by loops. Ties keep the landmark order
// (a stable sort), so a gradient that goes to one of several equal values
// goes to the first of them for min and the last for max.

// refOrder is the ascending order of vals, ties in landmark order.
func refOrder(vals []float64) []int {
	order := make([]int, len(vals))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return vals[order[a]] < vals[order[b]] })
	return order
}

// refRank is where percentile name ("p37") of n values lies in their
// ascending order: rank r = p/100·(n−1), between positions lo = ⌊r⌋ and
// lo+1, frac = r − lo of the way up.
func refRank(name string, n int) (lo int, frac float64) {
	p, err := strconv.Atoi(name[1:])
	if err != nil {
		panic(err)
	}
	r := float64(p) / 100 * float64(n-1)
	lo = int(math.Floor(r))
	return lo, r - float64(lo)
}

func refMean(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// refPool is op name over vals.
func refPool(name string, vals []float64) float64 {
	n := len(vals)
	sorted := make([]float64, n)
	for i, j := range refOrder(vals) {
		sorted[i] = vals[j]
	}
	switch name {
	case "min":
		return sorted[0]
	case "max":
		return sorted[n-1]
	case "avg":
		return refMean(vals)
	case "var":
		m := refMean(vals)
		var s float64
		for _, v := range vals {
			s += (v - m) * (v - m)
		}
		return s / float64(n)
	}
	lo, frac := refRank(name, n)
	if frac == 0 {
		return sorted[lo]
	}
	return (1-frac)*sorted[lo] + frac*sorted[lo+1]
}

// refPoolBackward adds to dvals the gradient g of op name's output routed
// onto vals: all of it to the selected order statistic for min and max,
// g/n to each value for avg, g·2(v−mean)/n for var, and (1−frac)·g and
// frac·g to the two ranks a percentile interpolates between.
func refPoolBackward(name string, vals []float64, g float64, dvals []float64) {
	n := len(vals)
	order := refOrder(vals)
	switch name {
	case "min":
		dvals[order[0]] += g
	case "max":
		dvals[order[n-1]] += g
	case "avg":
		for i := range dvals {
			dvals[i] += g / float64(n)
		}
	case "var":
		m := refMean(vals)
		for i, v := range vals {
			dvals[i] += g * 2 * (v - m) / float64(n)
		}
	default:
		lo, frac := refRank(name, n)
		dvals[order[lo]] += g * (1 - frac)
		if frac != 0 {
			dvals[order[lo+1]] += g * frac
		}
	}
}

// refLandPool is the layer's forward and backward over x and dout built
// on refPool: the per-landmark activations kernel·x_λ + bias, every op of
// names over each filter's ℓ activations, the locals passed through; then
// each pooled gradient routed by hand, summed over the ops in Ω order, and
// taken back through the convolution.
func refLandPool(lp *LandPool, names []string, x, dout *mat.Matrix) (out, dx, dkern *mat.Matrix, dbias []float64) {
	k, f := lp.K, lp.F
	ell := (x.Cols - lp.NumLocal) / k
	pooled := len(names) * f
	out = mat.New(x.Rows, pooled+lp.NumLocal)
	dx = mat.New(x.Rows, x.Cols)
	dkern = mat.New(f, k)
	dbias = make([]float64, f)
	for s := 0; s < x.Rows; s++ {
		row, orow, grow, drow := x.Row(s), out.Row(s), dout.Row(s), dx.Row(s)
		act := activations(lp, row, ell)
		dact := make([][]float64, ell)
		for l := range dact {
			dact[l] = make([]float64, f)
		}
		vals := make([]float64, ell)
		for fi := 0; fi < f; fi++ {
			for l := range vals {
				vals[l] = act[l][fi]
			}
			dvals := make([]float64, ell)
			for o, name := range names {
				orow[o*f+fi] = refPool(name, vals)
				refPoolBackward(name, vals, grow[o*f+fi], dvals)
			}
			for l, d := range dvals {
				dact[l][fi] = d
			}
		}
		copy(orow[pooled:], row[ell*k:])
		for l := 0; l < ell; l++ {
			for fi := 0; fi < f; fi++ {
				g := dact[l][fi]
				dbias[fi] += g
				mat.Axpy(g, row[l*k:(l+1)*k], dkern.Row(fi))
				mat.Axpy(g, lp.Kernel.Value.Row(fi), drow[l*k:(l+1)*k])
			}
		}
		copy(drow[ell*k:], grow[pooled:])
	}
	return out, dx, dkern, dbias
}

// sameBits reports the first element where got and want differ in any
// bit, -1 if none.
func sameBits(got, want []float64) int {
	if len(got) != len(want) {
		return 0
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// FuzzLandPoolMatchesReference: on random layers (k, f and ℓ in [1, 24],
// up to three locals, up to eight ops drawn with repeats from min, max,
// avg, var and p00 … p100) and random batches, LandPool's output and its
// input, kernel and bias gradients are bit-identical to the reference's.
// The reference sums each landmark's gradient over the ops in Ω order, as
// the layer does. Each layer runs two passes at two landmark counts, so
// its per-pass caches are reused. mode's low bit draws inputs from
// {−1, 0, 1}, making ties and zeros among the activations common; its
// next bit copies landmark blocks, making exact ties of continuous values.
// A third of the output gradients are zero. Inputs are finite.
func FuzzLandPoolMatchesReference(f *testing.F) {
	for mode := range uint8(8) {
		f.Add(int64(mode)+1, mode)
	}
	f.Add(int64(24), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		k, nf, local := 1+rng.Intn(24), 1+rng.Intn(24), rng.Intn(4)
		names := make([]string, 1+rng.Intn(8))
		for i := range names {
			switch c := rng.Intn(6); c {
			case 0, 1, 2, 3:
				names[i] = [...]string{"min", "max", "avg", "var"}[c]
			default:
				names[i] = fmt.Sprintf("p%02d", rng.Intn(101))
			}
		}
		lp := NewLandPool(k, nf, local, names, rng)
		for i := range lp.Bias.Value.Data {
			lp.Bias.Value.Data[i] = rng.NormFloat64()
		}
		NewNetwork(lp).SetTraining(true)
		if got := lp.Spec().Strings; !slices.Equal(got, names) {
			t.Fatalf("Spec names %v, built from %v", got, names)
		}
		for pass := 0; pass < 2; pass++ {
			ell, n := 1+rng.Intn(24), 1+rng.Intn(4)
			x := mat.New(n, ell*k+local)
			for i := range x.Data {
				if mode&1 != 0 {
					x.Data[i] = float64(rng.Intn(3) - 1)
				} else {
					x.Data[i] = rng.NormFloat64() * 3
				}
			}
			if mode&2 != 0 {
				for s := 0; s < n; s++ {
					row := x.Row(s)
					for l := 1; l < ell; l++ {
						if rng.Intn(2) == 0 {
							src := rng.Intn(l)
							copy(row[l*k:(l+1)*k], row[src*k:(src+1)*k])
						}
					}
				}
			}
			dout := mat.New(n, lp.OutWidth())
			for i := range dout.Data {
				if rng.Intn(3) != 0 {
					dout.Data[i] = rng.NormFloat64()
				}
			}
			wantOut, wantDx, wantDk, wantDb := refLandPool(lp, names, x, dout)
			out := lp.Forward(x)
			if i := sameBits(out.Data, wantOut.Data); i >= 0 {
				t.Fatalf("pass %d (k=%d f=%d ℓ=%d ops %v): output[%d] = %v, reference %v",
					pass, k, nf, ell, names, i, out.Data[i], wantOut.Data[i])
			}
			dx := lp.Backward(dout)
			for _, c := range []struct {
				what      string
				got, want []float64
			}{
				{"input gradient", dx.Data, wantDx.Data},
				{"kernel gradient", lp.Kernel.Grad.Data, wantDk.Data},
				{"bias gradient", lp.Bias.Grad.Data, wantDb},
			} {
				if i := sameBits(c.got, c.want); i >= 0 {
					t.Fatalf("pass %d (k=%d f=%d ℓ=%d ops %v): %s[%d] = %v, reference %v",
						pass, k, nf, ell, names, c.what, i, c.got[i], c.want[i])
				}
			}
		}
	})
}

package nn

import (
	"fmt"
	"math/rand"

	"diagnet/internal/mat"
)

// poolKind is what a pooling op computes.
type poolKind uint8

const (
	percentile poolKind = iota // linear interpolation between closest ranks
	mean
	variance // population variance
)

// poolOp is one of the commutative global pooling functions Ω applied
// across the landmark axis (paper §III-C). Ω is a closed set: a percentile
// of the landmark values, or their mean or variance. min and max are the
// percentiles p0 and p100.
type poolOp struct {
	name string // canonical, as Spec writes it
	kind poolKind
	p    float64 // the percentile, in [0, 100]
}

// DefaultPoolOps returns the names of the paper's Ω set (Table I): min,
// max, avg, variance and the deciles p10 … p90.
func DefaultPoolOps() []string {
	return []string{"min", "max", "avg", "var", "p10", "p20", "p30", "p40", "p50", "p60", "p70", "p80", "p90"}
}

// parsePoolOps builds the ops of names, reporting an unknown name, or a
// percentile outside [0, 100], as an error.
func parsePoolOps(names []string) ([]poolOp, error) {
	ops := make([]poolOp, len(names))
	for i, n := range names {
		switch n {
		case "min":
			ops[i] = poolOp{name: n, kind: percentile, p: 0}
		case "max":
			ops[i] = poolOp{name: n, kind: percentile, p: 100}
		case "avg":
			ops[i] = poolOp{name: n, kind: mean}
		case "var":
			ops[i] = poolOp{name: n, kind: variance}
		default:
			var p float64
			if _, err := fmt.Sscanf(n, "p%f", &p); err != nil || !(p >= 0 && p <= 100) {
				return nil, fmt.Errorf("unknown pool op %s", n)
			}
			ops[i] = poolOp{name: fmt.Sprintf("p%02.0f", p), kind: percentile, p: p}
		}
	}
	return ops, nil
}

// anchor is where a percentile of n values lies in their ascending order:
// between positions lo and hi, frac of the way to hi.
type anchor struct {
	lo, hi int
	frac   float64
}

// rank returns the interpolation anchors of percentile op for n values.
func (op poolOp) rank(n int) anchor {
	if n == 1 {
		return anchor{}
	}
	r := op.p / 100 * float64(n-1)
	a := anchor{lo: int(r)}
	a.frac = r - float64(a.lo)
	a.hi = a.lo
	if a.frac > 0 {
		a.hi = a.lo + 1
	}
	return a
}

// forwardAt is the percentile at anchor a of vals, whose ascending order
// is idx. At an exact rank it reads the one value, so that an infinite
// activation pools to itself and not to ∞·0 = NaN.
func forwardAt(vals []float64, idx []int, a anchor) float64 {
	if a.hi == a.lo {
		return vals[idx[a.lo]]
	}
	return vals[idx[a.lo]]*(1-a.frac) + vals[idx[a.hi]]*a.frac
}

// backwardAt routes g onto the order statistics of anchor a.
func backwardAt(idx []int, a anchor, g float64, dvals []float64) {
	dvals[idx[a.lo]] += g * (1 - a.frac)
	if a.hi != a.lo {
		dvals[idx[a.hi]] += g * a.frac
	}
}

// insertionArgsort fills idx with the ascending order of vals. Insertion
// sort beats sort.Slice for the ℓ ≤ a-few-dozen landmark counts this layer
// sees, and allocates nothing.
func insertionArgsort(vals []float64, idx []int) {
	for i := range idx {
		idx[i] = i
	}
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && vals[idx[j-1]] > vals[idx[j]]; j-- {
			idx[j-1], idx[j] = idx[j], idx[j-1]
		}
	}
}

// meanOf is the mean of vals.
func meanOf(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// LandPool is the paper's non-overlapping convolution with global pooling
// (§III-C, Fig. 3). The input row layout is
//
//	[landmark₀ (K feats) | landmark₁ (K feats) | … | NumLocal local feats]
//
// Each landmark's K features are projected through a shared kernel
// Kernel ∈ R^{F×K} plus bias to F filter activations; every pooling op of
// Ω then reduces the landmark axis, yielding |Ω|·F values. Local
// features bypass the convolution and are concatenated after the pooled
// block, so the layer's output width — |Ω|·F + NumLocal — does not
// depend on how many landmarks the sample carries. This is what makes the
// model root-cause extensible: landmarks may appear or disappear between
// training and inference without any architectural change.
type LandPool struct {
	K        int // features per landmark
	F        int // number of convolution filters
	NumLocal int // trailing local features passed through
	ops      []poolOp

	Kernel *Param // F×K
	Bias   *Param // 1×F

	ws *Workspace // where outputs and per-pass scratch come from (nil: the heap)

	// caches for backward
	x        *mat.Matrix
	ell      int
	filtered []float64 // per sample: ell*F filter activations
	order    []int     // per sample and filter: the ascending order of its ell activations
	nCached  int
	anchors  []anchor // per op: where a percentile reads at ell landmarks
}

// NewLandPool builds a LandPool layer with Glorot-initialized kernel whose
// Ω is the ops named (DefaultPoolOps). An unknown name causes a panic.
func NewLandPool(k, f, numLocal int, names []string, rng *rand.Rand) *LandPool {
	ops, err := parsePoolOps(names)
	if err != nil {
		panic("nn: " + err.Error())
	}
	lp := &LandPool{
		K:        k,
		F:        f,
		NumLocal: numLocal,
		ops:      ops,
		Kernel:   newParam("landpool_kernel", f, k),
		Bias:     newParam("landpool_bias", 1, f),
	}
	glorotInit(lp.Kernel, k, f, rng)
	return lp
}

// OutWidth returns the layer's output width: |Ω|·F + NumLocal.
func (lp *LandPool) OutWidth() int { return len(lp.ops)*lp.F + lp.NumLocal }

// landmarks returns how many landmarks an input of the given width carries.
func (lp *LandPool) landmarks(cols int) int {
	lw := cols - lp.NumLocal
	if lw < lp.K || lw%lp.K != 0 {
		panic(fmt.Sprintf("nn: LandPool: input width %d incompatible with k=%d local=%d", cols, lp.K, lp.NumLocal))
	}
	return lw / lp.K
}

// Forward applies the shared convolution and global pooling to a batch.
func (lp *LandPool) Forward(x *mat.Matrix) *mat.Matrix {
	ell := lp.landmarks(x.Cols)
	lp.x, lp.ell, lp.nCached = x, ell, x.Rows
	if need := x.Rows * ell * lp.F; cap(lp.filtered) < need {
		lp.filtered = make([]float64, need)
	}
	lp.filtered = lp.filtered[:x.Rows*ell*lp.F]
	needSort, needMean := lp.needs()
	if need := x.Rows * ell * lp.F; needSort && cap(lp.order) < need {
		lp.order = make([]int, need)
	}

	out := lp.ws.Matrix(x.Rows, lp.OutWidth()) // every element is written below
	kern := lp.Kernel.Value
	bias := lp.Bias.Value.Data
	vals := lp.ws.vector(ell)
	anchors := lp.anchorsAt(ell)
	var idx []int
	for s := 0; s < x.Rows; s++ {
		row := x.Row(s)
		fcache := lp.filtered[s*ell*lp.F : (s+1)*ell*lp.F]
		// Convolution: F[λ] = Kernel · x[λ] + Bias for each landmark λ.
		for l := 0; l < ell; l++ {
			xl := row[l*lp.K : (l+1)*lp.K]
			for fi := 0; fi < lp.F; fi++ {
				fcache[l*lp.F+fi] = mat.Dot(kern.Row(fi), xl) + bias[fi]
			}
		}
		// Pooling: out[o·F+fi] = Ω_o over λ of F[λ][fi]. The ascending
		// order is computed once per filter, shared by every percentile
		// and kept for Backward; the mean once, shared by avg and var.
		orow := out.Row(s)
		for fi := 0; fi < lp.F; fi++ {
			for l := 0; l < ell; l++ {
				vals[l] = fcache[l*lp.F+fi]
			}
			if needSort {
				idx = lp.sortOrder(s, fi)
				insertionArgsort(vals, idx)
			}
			var m float64
			if needMean {
				m = meanOf(vals)
			}
			for o, op := range lp.ops {
				switch op.kind {
				case percentile:
					orow[o*lp.F+fi] = forwardAt(vals, idx, anchors[o])
				case mean:
					orow[o*lp.F+fi] = m
				case variance:
					var sq float64
					for _, v := range vals {
						d := v - m
						sq += d * d
					}
					orow[o*lp.F+fi] = sq / float64(ell)
				}
			}
		}
		// Local features pass through.
		copy(orow[len(lp.ops)*lp.F:], row[ell*lp.K:])
	}
	return out
}

// anchorsAt returns the anchor of every percentile of the layer at ell
// landmarks, indexed like its ops: it depends on ell alone, so it is
// computed once per pass and not per sample and filter.
func (lp *LandPool) anchorsAt(ell int) []anchor {
	if cap(lp.anchors) < len(lp.ops) {
		lp.anchors = make([]anchor, len(lp.ops))
	}
	lp.anchors = lp.anchors[:len(lp.ops)]
	for o, op := range lp.ops {
		if op.kind == percentile {
			lp.anchors[o] = op.rank(ell)
		}
	}
	return lp.anchors
}

// needs reports whether an op of the layer reads the ascending order (a
// percentile) and whether one reads the mean (avg or var).
func (lp *LandPool) needs() (sorted, moments bool) {
	for _, op := range lp.ops {
		if op.kind == percentile {
			sorted = true
		} else {
			moments = true
		}
	}
	return sorted, moments
}

// sortOrder returns the slot of order that holds the ascending order of
// sample s's filter fi activations.
func (lp *LandPool) sortOrder(s, fi int) []int {
	at := (s*lp.F + fi) * lp.ell
	return lp.order[at : at+lp.ell : at+lp.ell]
}

// Backward propagates gradients through pooling and convolution,
// returning input gradients and, in training mode, storing the gradients
// of the kernel and bias unless they are frozen.
func (lp *LandPool) Backward(dout *mat.Matrix) *mat.Matrix {
	if lp.x == nil || dout.Rows != lp.nCached || dout.Cols != lp.OutWidth() {
		panic("nn: LandPool.Backward shape mismatch with Forward")
	}
	ell := lp.ell
	dx := lp.ws.Matrix(lp.x.Rows, lp.x.Cols)
	dx.Zero() // the convolution backward accumulates into it
	kern := lp.Kernel.Value
	var dkern *mat.Matrix // nil outside training mode and when frozen
	var dbias []float64
	if lp.Kernel.learns() {
		dkern = lp.Kernel.grad()
		dkern.Zero() // the batch's samples are summed into it
	}
	if lp.Bias.learns() {
		dbias = lp.Bias.grad().Data
		clear(dbias)
	}
	needSort, needMean := lp.needs()
	vals := lp.ws.vector(ell)
	var idx []int
	dvals := lp.ws.vector(ell)
	dfilt := lp.ws.vector(ell * lp.F)
	anchors := lp.anchorsAt(ell)
	for s := 0; s < lp.x.Rows; s++ {
		row := lp.x.Row(s)
		drow := dx.Row(s)
		grow := dout.Row(s)
		fcache := lp.filtered[s*ell*lp.F : (s+1)*ell*lp.F]
		for i := range dfilt {
			dfilt[i] = 0
		}
		// Pooling backward: scatter each pooled gradient over landmarks.
		for fi := 0; fi < lp.F; fi++ {
			for l := 0; l < ell; l++ {
				vals[l] = fcache[l*lp.F+fi]
			}
			if needSort {
				idx = lp.sortOrder(s, fi) // Forward's, of these very values
			}
			for i := range dvals {
				dvals[i] = 0
			}
			var m float64
			if needMean {
				m = meanOf(vals)
			}
			// The ops add into dvals in Ω order.
			for o, op := range lp.ops {
				g := grow[o*lp.F+fi]
				if g == 0 {
					continue
				}
				switch op.kind {
				case percentile:
					backwardAt(idx, anchors[o], g, dvals)
				case mean:
					w := g / float64(ell)
					for i := range dvals {
						dvals[i] += w
					}
				case variance: // d var/d v_i = 2 (v_i − mean) / n
					for i, v := range vals {
						dvals[i] += g * 2 * (v - m) / float64(ell)
					}
				}
			}
			for l := 0; l < ell; l++ {
				dfilt[l*lp.F+fi] = dvals[l]
			}
		}
		// Convolution backward.
		for l := 0; l < ell; l++ {
			xl := row[l*lp.K : (l+1)*lp.K]
			dxl := drow[l*lp.K : (l+1)*lp.K]
			for fi := 0; fi < lp.F; fi++ {
				g := dfilt[l*lp.F+fi]
				if g == 0 {
					continue
				}
				if dbias != nil {
					dbias[fi] += g
				}
				if dkern != nil {
					mat.Axpy(g, xl, dkern.Row(fi))
				}
				mat.Axpy(g, kern.Row(fi), dxl)
			}
		}
		// Local passthrough backward.
		copy(drow[ell*lp.K:], grow[len(lp.ops)*lp.F:])
	}
	return dx
}

// Params returns the shared kernel and bias.
func (lp *LandPool) Params() []*Param { return []*Param{lp.Kernel, lp.Bias} }

// Spec implements Layer.
func (lp *LandPool) Spec() LayerSpec {
	names := make([]string, len(lp.ops))
	for i, op := range lp.ops {
		names[i] = op.name
	}
	return LayerSpec{
		Kind:    "landpool",
		Ints:    map[string]int{"k": lp.K, "f": lp.F, "local": lp.NumLocal},
		Strings: names,
	}
}

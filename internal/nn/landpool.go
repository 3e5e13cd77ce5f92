package nn

import (
	"fmt"
	"math/rand"

	"diagnet/internal/mat"
)

// PoolOp is one commutative global pooling function Ω applied across the
// landmark axis (paper §III-C). Forward reduces the per-landmark values of
// one filter to a scalar; Backward distributes the output gradient g back
// onto the per-landmark values, accumulating into dvals.
type PoolOp interface {
	Name() string
	Forward(vals []float64) float64
	Backward(vals []float64, g float64, dvals []float64)
}

// MaxPool selects the maximum across landmarks.
type MaxPool struct{}

// Name implements PoolOp.
func (MaxPool) Name() string { return "max" }

// Forward implements PoolOp.
func (MaxPool) Forward(vals []float64) float64 {
	m := vals[0]
	for _, v := range vals[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Backward routes the gradient to the arg-max landmark.
func (MaxPool) Backward(vals []float64, g float64, dvals []float64) {
	arg := 0
	for i, v := range vals {
		if v > vals[arg] {
			arg = i
		}
	}
	dvals[arg] += g
}

// MinPool selects the minimum across landmarks.
type MinPool struct{}

// Name implements PoolOp.
func (MinPool) Name() string { return "min" }

// Forward implements PoolOp.
func (MinPool) Forward(vals []float64) float64 {
	m := vals[0]
	for _, v := range vals[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// Backward routes the gradient to the arg-min landmark.
func (MinPool) Backward(vals []float64, g float64, dvals []float64) {
	arg := 0
	for i, v := range vals {
		if v < vals[arg] {
			arg = i
		}
	}
	dvals[arg] += g
}

// AvgPool averages across landmarks.
type AvgPool struct{}

// Name implements PoolOp.
func (AvgPool) Name() string { return "avg" }

// Forward implements PoolOp.
func (AvgPool) Forward(vals []float64) float64 {
	var s float64
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}

// Backward spreads the gradient uniformly.
func (AvgPool) Backward(vals []float64, g float64, dvals []float64) {
	w := g / float64(len(vals))
	for i := range dvals {
		dvals[i] += w
	}
}

// VarPool computes the population variance across landmarks.
type VarPool struct{}

// Name implements PoolOp.
func (VarPool) Name() string { return "var" }

// Forward implements PoolOp.
func (VarPool) Forward(vals []float64) float64 {
	n := float64(len(vals))
	var mean float64
	for _, v := range vals {
		mean += v
	}
	mean /= n
	var s float64
	for _, v := range vals {
		d := v - mean
		s += d * d
	}
	return s / n
}

// Backward uses d var/d v_i = 2 (v_i − mean) / n.
func (VarPool) Backward(vals []float64, g float64, dvals []float64) {
	n := float64(len(vals))
	var mean float64
	for _, v := range vals {
		mean += v
	}
	mean /= n
	for i, v := range vals {
		dvals[i] += g * 2 * (v - mean) / n
	}
}

// sortedPoolOp is implemented by ops that can reuse a shared ascending
// argsort of the landmark values, letting LandPool sort once per
// (sample, filter) instead of once per op — the hot path of both training
// and attention.
type sortedPoolOp interface {
	ForwardSorted(vals []float64, idx []int) float64
	BackwardSorted(vals []float64, idx []int, g float64, dvals []float64)
}

// ForwardSorted implements sortedPoolOp.
func (MinPool) ForwardSorted(vals []float64, idx []int) float64 { return vals[idx[0]] }

// BackwardSorted implements sortedPoolOp.
func (MinPool) BackwardSorted(vals []float64, idx []int, g float64, dvals []float64) {
	dvals[idx[0]] += g
}

// ForwardSorted implements sortedPoolOp.
func (MaxPool) ForwardSorted(vals []float64, idx []int) float64 { return vals[idx[len(idx)-1]] }

// BackwardSorted implements sortedPoolOp.
func (MaxPool) BackwardSorted(vals []float64, idx []int, g float64, dvals []float64) {
	dvals[idx[len(idx)-1]] += g
}

// PercentilePool computes the p-th percentile across landmarks with linear
// interpolation between closest ranks.
type PercentilePool struct{ P float64 }

// Name implements PoolOp.
func (p PercentilePool) Name() string { return fmt.Sprintf("p%02.0f", p.P) }

// rank returns the interpolation anchors for n values.
func (p PercentilePool) rank(n int) (lo, hi int, frac float64) {
	if n == 1 {
		return 0, 0, 0
	}
	r := p.P / 100 * float64(n-1)
	lo = int(r)
	frac = r - float64(lo)
	hi = lo
	if frac > 0 {
		hi = lo + 1
	}
	return lo, hi, frac
}

// Forward implements PoolOp.
func (p PercentilePool) Forward(vals []float64) float64 {
	idx := make([]int, len(vals))
	insertionArgsort(vals, idx)
	return p.ForwardSorted(vals, idx)
}

// Backward routes the gradient onto the one or two order statistics the
// interpolation touched.
func (p PercentilePool) Backward(vals []float64, g float64, dvals []float64) {
	idx := make([]int, len(vals))
	insertionArgsort(vals, idx)
	p.BackwardSorted(vals, idx, g, dvals)
}

// ForwardSorted implements sortedPoolOp.
func (p PercentilePool) ForwardSorted(vals []float64, idx []int) float64 {
	lo, hi, frac := p.rank(len(vals))
	return vals[idx[lo]]*(1-frac) + vals[idx[hi]]*frac
}

// BackwardSorted implements sortedPoolOp.
func (p PercentilePool) BackwardSorted(vals []float64, idx []int, g float64, dvals []float64) {
	lo, hi, frac := p.rank(len(vals))
	dvals[idx[lo]] += g * (1 - frac)
	if hi != lo {
		dvals[idx[hi]] += g * frac
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

// DefaultPoolOps returns the paper's Ω set (Table I): min, max, avg,
// variance and the deciles p10 … p90.
func DefaultPoolOps() []PoolOp {
	ops := []PoolOp{MinPool{}, MaxPool{}, AvgPool{}, VarPool{}}
	for p := 10.0; p <= 90; p += 10 {
		ops = append(ops, PercentilePool{P: p})
	}
	return ops
}

// PoolOpsByName rebuilds a pooling-op list from its names (a Config's).
// Unknown names cause a panic.
func PoolOpsByName(names []string) []PoolOp {
	ops, err := poolOpsByName(names)
	if err != nil {
		panic("nn: " + err.Error())
	}
	return ops
}

// poolOpsByName is PoolOpsByName reporting an unknown name, or a
// percentile outside [0, 100], as an error.
func poolOpsByName(names []string) ([]PoolOp, error) {
	ops := make([]PoolOp, len(names))
	for i, n := range names {
		switch n {
		case "min":
			ops[i] = MinPool{}
		case "max":
			ops[i] = MaxPool{}
		case "avg":
			ops[i] = AvgPool{}
		case "var":
			ops[i] = VarPool{}
		default:
			var p float64
			if _, err := fmt.Sscanf(n, "p%f", &p); err != nil || !(p >= 0 && p <= 100) {
				return nil, fmt.Errorf("unknown pool op %s", n)
			}
			ops[i] = PercentilePool{P: p}
		}
	}
	return ops, nil
}

// LandPool is the paper's non-overlapping convolution with global pooling
// (§III-C, Fig. 3). The input row layout is
//
//	[landmark₀ (K feats) | landmark₁ (K feats) | … | NumLocal local feats]
//
// Each landmark's K features are projected through a shared kernel
// Kernel ∈ R^{F×K} plus bias to F filter activations; every pooling op in
// Ops then reduces the landmark axis, yielding len(Ops)·F values. Local
// features bypass the convolution and are concatenated after the pooled
// block, so the layer's output width — len(Ops)·F + NumLocal — does not
// depend on how many landmarks the sample carries. This is what makes the
// model root-cause extensible: landmarks may appear or disappear between
// training and inference without any architectural change.
type LandPool struct {
	K        int // features per landmark
	F        int // number of convolution filters
	NumLocal int // trailing local features passed through
	Ops      []PoolOp

	Kernel *Param // F×K
	Bias   *Param // 1×F

	ws *Workspace // where outputs and per-pass scratch come from (nil: the heap)

	// caches for backward
	x        *mat.Matrix
	ell      int
	filtered []float64 // per sample: ell*F filter activations
	order    []int     // per sample and filter: the ascending order of its ell activations
	nCached  int
}

// NewLandPool builds a LandPool layer with Glorot-initialized kernel.
func NewLandPool(k, f, numLocal int, ops []PoolOp, rng *rand.Rand) *LandPool {
	lp := &LandPool{
		K:        k,
		F:        f,
		NumLocal: numLocal,
		Ops:      ops,
		Kernel:   newParam("landpool_kernel", f, k),
		Bias:     newParam("landpool_bias", 1, f),
	}
	glorotInit(lp.Kernel, k, f, rng)
	return lp
}

// OutWidth returns the layer's output width: len(Ops)·F + NumLocal.
func (lp *LandPool) OutWidth() int { return len(lp.Ops)*lp.F + lp.NumLocal }

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
	needSort := lp.needSort()
	if need := x.Rows * ell * lp.F; needSort && cap(lp.order) < need {
		lp.order = make([]int, need)
	}

	out := lp.ws.Matrix(x.Rows, lp.OutWidth()) // every element is written below
	kern := lp.Kernel.Value
	bias := lp.Bias.Value.Data
	vals := lp.ws.vector(ell)
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
		// order is computed once per filter, shared by every
		// order-statistic op and kept for Backward.
		orow := out.Row(s)
		for fi := 0; fi < lp.F; fi++ {
			for l := 0; l < ell; l++ {
				vals[l] = fcache[l*lp.F+fi]
			}
			if needSort {
				idx = lp.sortOrder(s, fi)
				insertionArgsort(vals, idx)
			}
			for o, op := range lp.Ops {
				if so, ok := op.(sortedPoolOp); ok {
					orow[o*lp.F+fi] = so.ForwardSorted(vals, idx)
				} else {
					orow[o*lp.F+fi] = op.Forward(vals)
				}
			}
		}
		// Local features pass through.
		copy(orow[len(lp.Ops)*lp.F:], row[ell*lp.K:])
	}
	return out
}

// needSort reports whether an op of the layer reads the ascending order.
func (lp *LandPool) needSort() bool {
	for _, op := range lp.Ops {
		if _, ok := op.(sortedPoolOp); ok {
			return true
		}
	}
	return false
}

// sortOrder returns the slot of order that holds the ascending order of
// sample s's filter fi activations.
func (lp *LandPool) sortOrder(s, fi int) []int {
	at := (s*lp.F + fi) * lp.ell
	return lp.order[at : at+lp.ell : at+lp.ell]
}

// Backward propagates gradients through pooling and convolution,
// returning input gradients and, in training mode, accumulating the
// gradients of the kernel and bias unless they are frozen.
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
	if lp.Kernel.accumulates() {
		dkern = lp.Kernel.grad()
	}
	if lp.Bias.accumulates() {
		dbias = lp.Bias.grad().Data
	}
	needSort := lp.needSort()
	vals := lp.ws.vector(ell)
	var idx []int
	dvals := lp.ws.vector(ell)
	dfilt := lp.ws.vector(ell * lp.F)
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
			for o, op := range lp.Ops {
				g := grow[o*lp.F+fi]
				if g == 0 {
					continue
				}
				if so, ok := op.(sortedPoolOp); ok {
					so.BackwardSorted(vals, idx, g, dvals)
				} else {
					op.Backward(vals, g, dvals)
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
		copy(drow[ell*lp.K:], grow[len(lp.Ops)*lp.F:])
	}
	return dx
}

// Params returns the shared kernel and bias.
func (lp *LandPool) Params() []*Param { return []*Param{lp.Kernel, lp.Bias} }

// Spec implements Layer.
func (lp *LandPool) Spec() LayerSpec {
	names := make([]string, len(lp.Ops))
	for i, op := range lp.Ops {
		names[i] = op.Name()
	}
	return LayerSpec{
		Kind:    "landpool",
		Ints:    map[string]int{"k": lp.K, "f": lp.F, "local": lp.NumLocal},
		Strings: names,
	}
}

// Package kde implements one-dimensional Gaussian kernel density
// estimation with Silverman bandwidth selection, plus the union ("merge")
// operation the paper's extensible Naive Bayes baseline builds its generic
// likelihoods with (§IV-B-b).
package kde

import (
	"math"
	"sort"

	"diagnet/internal/stats"
)

// invSqrt2Pi = 1/√(2π), the Gaussian kernel normalizer.
const invSqrt2Pi = 0.3989422804014327

// KDE is a fitted one-dimensional kernel density estimate.
type KDE struct {
	points    []float64
	bandwidth float64
}

// New fits a KDE on points. A non-positive bandwidth selects Silverman's
// rule of thumb. New panics on an empty sample.
func New(points []float64, bandwidth float64) *KDE {
	if len(points) == 0 {
		panic("kde: empty sample")
	}
	pts := append([]float64(nil), points...)
	if bandwidth <= 0 {
		bandwidth = Silverman(pts)
	}
	return &KDE{points: pts, bandwidth: bandwidth}
}

// Silverman returns the rule-of-thumb bandwidth
// 0.9·min(σ, IQR/1.34)·n^(−1/5), floored to stay strictly positive for
// degenerate samples.
func Silverman(points []float64) float64 {
	n := float64(len(points))
	sorted := append([]float64(nil), points...)
	sort.Float64s(sorted)
	sigma := stats.StdDev(points)
	iqr := stats.PercentileSorted(sorted, 75) - stats.PercentileSorted(sorted, 25)
	spread := sigma
	if iqr/1.34 < spread && iqr > 0 {
		spread = iqr / 1.34
	}
	h := 0.9 * spread * math.Pow(n, -0.2)
	if h <= 0 {
		// Degenerate (constant) sample: use a narrow kernel scaled to the
		// value's magnitude so the density is still well defined.
		h = math.Max(math.Abs(points[0])*1e-3, 1e-6)
	}
	return h
}

// Bandwidth returns the kernel bandwidth in use.
func (k *KDE) Bandwidth() float64 { return k.bandwidth }

// Len returns the number of support points.
func (k *KDE) Len() int { return len(k.points) }

// Density returns the estimated probability density at x.
func (k *KDE) Density(x float64) float64 {
	var s float64
	inv := 1 / k.bandwidth
	for _, p := range k.points {
		u := (x - p) * inv
		s += math.Exp(-0.5 * u * u)
	}
	return s * invSqrt2Pi * inv / float64(len(k.points))
}

// Merge returns the union KDE of all inputs: the concatenation of their
// support points with a freshly selected Silverman bandwidth. This is the
// paper's KDE-merge used to build generic likelihoods for features and
// classes unseen during training.
func Merge(ks ...*KDE) *KDE {
	var pts []float64
	for _, k := range ks {
		if k != nil {
			pts = append(pts, k.points...)
		}
	}
	if len(pts) == 0 {
		panic("kde: Merge of no samples")
	}
	return New(pts, 0)
}

// Subsample deterministically reduces points to at most max elements using
// an even stride over the sorted values, preserving the distribution's
// shape while bounding density-evaluation cost.
func Subsample(points []float64, max int) []float64 {
	if len(points) <= max || max <= 0 {
		return append([]float64(nil), points...)
	}
	sorted := append([]float64(nil), points...)
	sort.Float64s(sorted)
	out := make([]float64, max)
	step := float64(len(sorted)-1) / float64(max-1)
	for i := range out {
		out[i] = sorted[int(math.Round(float64(i)*step))]
	}
	return out
}

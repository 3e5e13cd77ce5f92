// Package eval provides the evaluation metrics of the paper: Recall@k over
// ranked root-cause lists (§IV-C), and accuracy/F1/confusion matrices for
// the coarse classifier (§IV-D).
package eval

import (
	"fmt"
	"math"
	"sort"

	"diagnet/internal/stats"
)

// RankOf returns the 1-based rank of target within scores, using mid-rank
// tie handling: one plus the number of strictly greater entries plus half
// the number of equal entries. Mid-ranking keeps the metric deterministic
// without crediting a model for ranking many causes identically (a model
// that ties 30 causes at the top must not get Recall@1 credit for all of
// them).
func RankOf(scores []float64, target int) int {
	if target < 0 || target >= len(scores) {
		panic(fmt.Sprintf("eval: target %d out of %d scores", target, len(scores)))
	}
	greater, equal := 0, 0
	for i, s := range scores {
		if i == target {
			continue
		}
		switch {
		case s > scores[target]:
			greater++
		case s == scores[target]:
			equal++
		}
	}
	return 1 + greater + equal/2
}

// RecallAtK returns the fraction of ranks ≤ k.
func RecallAtK(ranks []int, k int) float64 {
	if len(ranks) == 0 {
		return 0
	}
	hit := 0
	for _, r := range ranks {
		if r <= k {
			hit++
		}
	}
	return float64(hit) / float64(len(ranks))
}

// RecallCurve returns Recall@1..Recall@maxK.
func RecallCurve(ranks []int, maxK int) []float64 {
	out := make([]float64, maxK)
	for k := 1; k <= maxK; k++ {
		out[k-1] = RecallAtK(ranks, k)
	}
	return out
}

// MRR returns the mean reciprocal rank, a rank-position-sensitive summary
// complementing Recall@k.
func MRR(ranks []int) float64 {
	if len(ranks) == 0 {
		return 0
	}
	var s float64
	for _, r := range ranks {
		s += 1 / float64(r)
	}
	return s / float64(len(ranks))
}

// BootstrapRecallCI returns a percentile bootstrap confidence interval for
// Recall@k: `iters` resamples of the rank list, interval [alpha/2,
// 1-alpha/2]. Deterministic for a given seed.
func BootstrapRecallCI(ranks []int, k, iters int, alpha float64, seed int64) (lo, hi float64) {
	if len(ranks) == 0 {
		return 0, 0
	}
	if iters <= 0 {
		iters = 1000
	}
	if alpha <= 0 || alpha >= 1 {
		alpha = 0.05
	}
	rng := stats.NewRand(seed, 0)
	estimates := make([]float64, iters)
	resample := make([]int, len(ranks))
	for it := 0; it < iters; it++ {
		for i := range resample {
			resample[i] = ranks[rng.Intn(len(ranks))]
		}
		estimates[it] = RecallAtK(resample, k)
	}
	sort.Float64s(estimates)
	lo = stats.PercentileSorted(estimates, 100*alpha/2)
	hi = stats.PercentileSorted(estimates, 100*(1-alpha/2))
	return lo, hi
}

// Confusion is a square confusion matrix over class indices.
type Confusion struct {
	Classes int
	Counts  [][]int // Counts[truth][pred]
	N       int
}

// NewConfusion creates an empty matrix over `classes` classes.
func NewConfusion(classes int) *Confusion {
	c := &Confusion{Classes: classes, Counts: make([][]int, classes)}
	for i := range c.Counts {
		c.Counts[i] = make([]int, classes)
	}
	return c
}

// Add records one (truth, prediction) pair.
func (c *Confusion) Add(truth, pred int) {
	c.Counts[truth][pred]++
	c.N++
}

// Accuracy returns the fraction of correct predictions.
func (c *Confusion) Accuracy() float64 {
	if c.N == 0 {
		return 0
	}
	correct := 0
	for i := 0; i < c.Classes; i++ {
		correct += c.Counts[i][i]
	}
	return float64(correct) / float64(c.N)
}

// AccuracyStdErr returns the binomial standard error of the accuracy, the
// ± the paper quotes for the coarse classifier (Fig. 7).
func (c *Confusion) AccuracyStdErr() float64 {
	if c.N == 0 {
		return 0
	}
	p := c.Accuracy()
	return math.Sqrt(p * (1 - p) / float64(c.N))
}

// Precision returns TP/(TP+FP) for a class (0 when the class was never
// predicted).
func (c *Confusion) Precision(class int) float64 {
	tp := c.Counts[class][class]
	predicted := 0
	for i := 0; i < c.Classes; i++ {
		predicted += c.Counts[i][class]
	}
	if predicted == 0 {
		return 0
	}
	return float64(tp) / float64(predicted)
}

// Recall returns TP/(TP+FN) for a class (0 when the class never occurred).
func (c *Confusion) Recall(class int) float64 {
	tp := c.Counts[class][class]
	actual := 0
	for j := 0; j < c.Classes; j++ {
		actual += c.Counts[class][j]
	}
	if actual == 0 {
		return 0
	}
	return float64(tp) / float64(actual)
}

// F1 returns the harmonic mean of precision and recall for a class.
func (c *Confusion) F1(class int) float64 {
	p, r := c.Precision(class), c.Recall(class)
	if p+r == 0 {
		return 0
	}
	return 2 * p * r / (p + r)
}

// Support returns how many samples of the class occurred.
func (c *Confusion) Support(class int) int {
	n := 0
	for j := 0; j < c.Classes; j++ {
		n += c.Counts[class][j]
	}
	return n
}

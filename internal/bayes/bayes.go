// Package bayes implements the paper's extensible Naive Bayes baseline
// (§IV-B-b): per-(feature, class) Gaussian-KDE likelihoods, unit priors
// P(C_k) = 1 for every root cause (cancelling dataset imbalance and letting
// never-seen causes compete), and generic *union* KDE likelihoods — merged
// across every landmark available during training — standing in whenever a
// specific likelihood is missing for a feature or a class.
package bayes

import (
	"fmt"
	"math"

	"diagnet/internal/kde"
)

// Config controls the baseline.
type Config struct {
	// MaxKDEPoints caps the support of each likelihood KDE (deterministic
	// stride subsampling); <=0 means 64, keeping density evaluation cheap.
	MaxKDEPoints int
	// Bandwidth overrides Silverman bandwidth selection when positive.
	Bandwidth float64
}

func (c Config) withDefaults() Config {
	if c.MaxKDEPoints <= 0 {
		c.MaxKDEPoints = 64
	}
	return c
}

type likeKey struct{ feature, class int }

// Model is a fitted extensible Naive Bayes classifier over root causes.
// Causes are identified with input features (the paper's design), so the
// family of cause k is the family of feature k.
type Model struct {
	causes int
	family []int // family of each feature/cause

	// specific[(j, k)] = P(x_j | C_k) for pairs observed during training.
	specific map[likeKey]*kde.KDE
	// genericFam[(fam_j, fam_k)] = union KDE over all observed specific
	// likelihoods with those families.
	genericFam map[likeKey]*kde.KDE
	// genericFeat[fam_j] = union KDE over all observed values of family
	// fam_j features across faulty samples, the last-resort fallback.
	genericFeat map[int]*kde.KDE
}

// Fit trains on faulty samples only: x rows are feature vectors, labels are
// cause indices in [0, causes). family maps each feature (and hence each
// cause) to its measure family. known[j] tells whether feature j carried
// real measurements during training (hidden landmarks are zero-filled and
// must be excluded from likelihood estimation).
func Fit(x [][]float64, labels []int, causes int, family []int, known []bool, cfg Config) *Model {
	cfg = cfg.withDefaults()
	if len(x) == 0 {
		panic("bayes: empty training set")
	}
	numFeat := len(x[0])
	if len(family) != numFeat {
		panic(fmt.Sprintf("bayes: %d families for %d features", len(family), numFeat))
	}
	if causes > numFeat {
		panic("bayes: more causes than features")
	}

	// Gather raw values per (feature, class).
	values := make(map[likeKey][]float64)
	featValues := make(map[int][]float64)
	for i, row := range x {
		y := labels[i]
		if y < 0 || y >= causes {
			panic(fmt.Sprintf("bayes: label %d out of range at row %d", y, i))
		}
		if !known[y] {
			// Causes at hidden landmarks must not leak into training.
			continue
		}
		for j := 0; j < numFeat; j++ {
			if !known[j] {
				continue
			}
			values[likeKey{j, y}] = append(values[likeKey{j, y}], row[j])
			featValues[family[j]] = append(featValues[family[j]], row[j])
		}
	}

	m := &Model{
		causes:      causes,
		family:      append([]int(nil), family...),
		specific:    make(map[likeKey]*kde.KDE),
		genericFam:  make(map[likeKey]*kde.KDE),
		genericFeat: make(map[int]*kde.KDE),
	}
	famValues := make(map[likeKey][]float64)
	for key, vals := range values {
		sub := kde.Subsample(vals, cfg.MaxKDEPoints)
		m.specific[key] = kde.New(sub, cfg.Bandwidth)
		fk := likeKey{family[key.feature], family[key.class]}
		famValues[fk] = append(famValues[fk], sub...)
	}
	for fk, vals := range famValues {
		m.genericFam[fk] = kde.New(kde.Subsample(vals, cfg.MaxKDEPoints), cfg.Bandwidth)
	}
	for fam, vals := range featValues {
		m.genericFeat[fam] = kde.New(kde.Subsample(vals, cfg.MaxKDEPoints), cfg.Bandwidth)
	}
	return m
}

// likelihood returns P(x_j | C_k) with the paper's fallback chain:
// specific → generic per family pair → generic per feature family → a flat
// floor density.
func (m *Model) likelihood(j, k int, xj float64) float64 {
	if l, ok := m.specific[likeKey{j, k}]; ok {
		return l.Density(xj)
	}
	if l, ok := m.genericFam[likeKey{m.family[j], m.family[k]}]; ok {
		return l.Density(xj)
	}
	if l, ok := m.genericFeat[m.family[j]]; ok {
		return l.Density(xj)
	}
	return 1e-12
}

// Scores returns a normalized score per cause for the sample x, computed
// as exp of the naive-Bayes log posterior with unit priors. Higher is more
// likely.
func (m *Model) Scores(x []float64) []float64 {
	logp := make([]float64, m.causes)
	for k := 0; k < m.causes; k++ {
		var s float64
		for j, xj := range x {
			d := m.likelihood(j, k, xj)
			if d < 1e-300 {
				d = 1e-300
			}
			s += math.Log(d)
		}
		logp[k] = s
	}
	// Normalize in log space for a comparable, overflow-free score vector.
	max := logp[0]
	for _, v := range logp[1:] {
		if v > max {
			max = v
		}
	}
	var sum float64
	out := make([]float64, m.causes)
	for k, v := range logp {
		out[k] = math.Exp(v - max)
		sum += out[k]
	}
	for k := range out {
		out[k] /= sum
	}
	return out
}

// Causes returns the number of root-cause classes.
func (m *Model) Causes() int { return m.causes }

package bayes

import (
	"math"
	"math/rand"
	"testing"
)

// tinyWorld builds a 4-feature, 4-cause dataset: cause j inflates feature j.
// Features 0,1 are family 0; features 2,3 are family 1.
func tinyWorld(rng *rand.Rand, n int, known []bool) ([][]float64, []int) {
	var x [][]float64
	var labels []int
	for i := 0; i < n; i++ {
		cause := rng.Intn(4)
		row := make([]float64, 4)
		for j := range row {
			row[j] = rng.NormFloat64() * 0.3
			if !known[j] {
				row[j] = 0 // hidden features are zero-filled in training data
			}
		}
		if known[cause] {
			row[cause] += 5
		}
		x = append(x, row)
		labels = append(labels, cause)
	}
	return x, labels
}

var tinyFamily = []int{0, 0, 1, 1}

func TestFitAndRankKnownCause(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	known := []bool{true, true, true, true}
	x, labels := tinyWorld(rng, 400, known)
	m := Fit(x, labels, 4, tinyFamily, known, Config{})

	// A sample with feature 2 inflated should rank cause 2 first.
	probe := []float64{0, 0, 5, 0}
	scores := m.Scores(probe)
	best := 0
	for k, s := range scores {
		if s > scores[best] {
			best = k
		}
	}
	if best != 2 {
		t.Fatalf("ranked cause %d first, want 2 (scores %v)", best, scores)
	}
}

func TestScoresNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	known := []bool{true, true, true, true}
	x, labels := tinyWorld(rng, 200, known)
	m := Fit(x, labels, 4, tinyFamily, known, Config{})
	scores := m.Scores([]float64{1, 2, 3, 4})
	var s float64
	for _, v := range scores {
		if v < 0 {
			t.Fatalf("negative score %v", v)
		}
		s += v
	}
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("scores sum to %v", s)
	}
}

func TestHiddenCauseUsesGenericLikelihood(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	known := []bool{true, true, true, false} // feature/cause 3 hidden
	x, labels := tinyWorld(rng, 400, known)
	m := Fit(x, labels, 4, tinyFamily, known, Config{})

	// No specific likelihood may exist for the hidden feature or cause.
	for j := 0; j < 4; j++ {
		if _, ok := m.specific[likeKey{j, 3}]; ok {
			t.Fatal("hidden cause leaked a specific likelihood")
		}
		if _, ok := m.specific[likeKey{3, j}]; ok {
			t.Fatal("hidden feature leaked a specific likelihood")
		}
	}
	// The hidden cause still receives a non-zero score (extensibility).
	scores := m.Scores([]float64{0, 0, 0, 5})
	if scores[3] <= 0 {
		t.Fatalf("hidden cause scored %v", scores[3])
	}
}

func TestUnknownCauseCanWinOnItsFeature(t *testing.T) {
	// The paper observes NB is usable for *new* landmarks: an extreme value
	// on a hidden feature should push its cause up the ranking relative to
	// a nominal-looking sample.
	rng := rand.New(rand.NewSource(4))
	known := []bool{true, true, true, false}
	x, labels := tinyWorld(rng, 600, known)
	m := Fit(x, labels, 4, tinyFamily, known, Config{})

	calm := m.Scores([]float64{0, 0, 0, 0})
	spike := m.Scores([]float64{0, 0, 0, 25})
	if spike[3] < calm[3] {
		t.Fatalf("hidden-cause score should not drop when its feature spikes: %v -> %v", calm[3], spike[3])
	}
}

func TestFitRejectsBadLabel(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Fit([][]float64{{1, 2, 3, 4}}, []int{9}, 4, tinyFamily, []bool{true, true, true, true}, Config{})
}

func TestFitRejectsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Fit(nil, nil, 4, tinyFamily, nil, Config{})
}

func TestFitRejectsFamilyMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	Fit([][]float64{{1, 2}}, []int{0}, 2, []int{0}, []bool{true, true}, Config{})
}

func TestMaxKDEPointsCapsSupport(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	known := []bool{true, true, true, true}
	x, labels := tinyWorld(rng, 1000, known)
	m := Fit(x, labels, 4, tinyFamily, known, Config{MaxKDEPoints: 16})
	for key, k := range m.specific {
		if k.Len() > 16 {
			t.Fatalf("likelihood %v has %d support points", key, k.Len())
		}
	}
	if len(m.specific) == 0 {
		t.Fatal("no specific likelihoods fitted")
	}
}

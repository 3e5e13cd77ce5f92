package forest

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"
)

// gaussianBlobs builds a linearly separable 2-class dataset.
func gaussianBlobs(rng *rand.Rand, n int) ([][]float64, []int) {
	x := make([][]float64, n)
	labels := make([]int, n)
	for i := range x {
		c := rng.Intn(2)
		cx := float64(c*6 - 3)
		x[i] = []float64{cx + rng.NormFloat64(), rng.NormFloat64()}
		labels[i] = c
	}
	return x, labels
}

func TestTreeFitsPureSplit(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {10}, {11}, {12}}
	labels := []int{0, 0, 0, 1, 1, 1}
	tree := FitTree(x, labels, 2, nil, TreeConfig{MaxFeatures: 1}, rand.New(rand.NewSource(1)))
	for i, row := range x {
		if tree.Predict(row) != labels[i] {
			t.Fatalf("row %d misclassified", i)
		}
	}
	if tree.Depth() != 1 {
		t.Fatalf("trivially separable data should give depth 1, got %d", tree.Depth())
	}
}

func TestTreeRespectsMaxDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([][]float64, 200)
	labels := make([]int, 200)
	for i := range x {
		x[i] = []float64{rng.Float64(), rng.Float64(), rng.Float64()}
		labels[i] = rng.Intn(3)
	}
	tree := FitTree(x, labels, 3, nil, TreeConfig{MaxDepth: 4, MaxFeatures: 3}, rng)
	if d := tree.Depth(); d > 4 {
		t.Fatalf("depth %d exceeds max 4", d)
	}
}

func TestTreeLeafDistributionSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, labels := gaussianBlobs(rng, 100)
	tree := FitTree(x, labels, 2, nil, TreeConfig{MaxDepth: 3}, rng)
	for _, row := range x {
		var s float64
		for _, p := range tree.PredictProba(row) {
			s += p
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("leaf dist sums to %v", s)
		}
	}
}

func TestTreePureNodeStopsEarly(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	labels := []int{1, 1, 1}
	tree := FitTree(x, labels, 2, nil, TreeConfig{}, rand.New(rand.NewSource(4)))
	if tree.Depth() != 0 {
		t.Fatal("pure data must give a single leaf")
	}
	if p := tree.PredictProba([]float64{5}); p[1] != 1 {
		t.Fatalf("leaf dist = %v", p)
	}
}

func TestForestAccuracyOnBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, labels := gaussianBlobs(rng, 400)
	f := Fit(x, labels, 2, Config{Trees: 20, Tree: TreeConfig{MaxDepth: 6}, Seed: 1})
	correct := 0
	for i, row := range x {
		if f.Predict(row) == labels[i] {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(x)); acc < 0.95 {
		t.Fatalf("forest accuracy %.3f", acc)
	}
}

func TestForestDeterministicAcrossGOMAXPROCS(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, labels := gaussianBlobs(rng, 150)
	cfg := Config{Trees: 8, Tree: TreeConfig{MaxDepth: 5}, Seed: 9}
	old := runtime.GOMAXPROCS(1)
	f1 := Fit(x, labels, 2, cfg)
	runtime.GOMAXPROCS(4)
	f2 := Fit(x, labels, 2, cfg)
	runtime.GOMAXPROCS(old)
	probe := []float64{0.5, -0.2}
	p1, p2 := f1.PredictProba(probe), f2.PredictProba(probe)
	for k := range p1 {
		if p1[k] != p2[k] {
			t.Fatalf("forest depends on GOMAXPROCS: %v vs %v", p1, p2)
		}
	}
}

func TestForestProbaNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, labels := gaussianBlobs(rng, 100)
	f := Fit(x, labels, 10, Config{Trees: 5, Tree: TreeConfig{MaxDepth: 4}, Seed: 2})
	_ = labels
	var s float64
	for _, p := range f.PredictProba(x[0]) {
		s += p
	}
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("proba sums to %v", s)
	}
	if f.Trees() != 5 || f.Classes() != 10 {
		t.Fatal("metadata wrong")
	}
}

func TestExtensibleRedistributesUnknown(t *testing.T) {
	// 3 causes + unknown. Train with only cause 0 and unknown present.
	rng := rand.New(rand.NewSource(8))
	var x [][]float64
	var labels []int
	for i := 0; i < 200; i++ {
		if i%2 == 0 {
			x = append(x, []float64{5 + rng.NormFloat64(), 0, 0})
			labels = append(labels, 0) // cause 0
		} else {
			x = append(x, []float64{rng.NormFloat64() * 0.1, 0, 0})
			labels = append(labels, 3) // unknown
		}
	}
	e := FitExtensible(x, labels, 3, Config{Trees: 10, Tree: TreeConfig{MaxDepth: 4}, Seed: 3})

	// A nominal-looking sample: most mass goes to unknown and is spread, so
	// every cause gets a strictly positive score.
	scores := e.Scores([]float64{0, 0, 0})
	for k, s := range scores {
		if s <= 0 {
			t.Fatalf("cause %d got non-positive score %v", k, s)
		}
	}
	// Cause 1 and 2 were never seen: their scores come only from the
	// uniform share, hence are equal.
	if math.Abs(scores[1]-scores[2]) > 1e-12 {
		t.Fatalf("unseen causes should tie: %v", scores)
	}
	// A cause-0-looking sample ranks cause 0 first.
	scores = e.Scores([]float64{5, 0, 0})
	if !(scores[0] > scores[1] && scores[0] > scores[2]) {
		t.Fatalf("cause 0 should dominate: %v", scores)
	}
	if e.Causes() != 3 {
		t.Fatal("Causes() wrong")
	}
}

func TestExtensibleScoreMassConserved(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, labels := gaussianBlobs(rng, 100)
	// Re-map to causes {0,1} with unknown=2.
	e := FitExtensible(x, labels, 2, Config{Trees: 5, Tree: TreeConfig{MaxDepth: 3}, Seed: 4})
	scores := e.Scores(x[0])
	var s float64
	for _, v := range scores {
		s += v
	}
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("scores sum to %v, want 1", s)
	}
}

// ScoresInto sums the trees as PredictProba does, so its scores are the
// forest's distribution with the unknown mass spread, bit for bit — and it
// writes them into the caller's buffer without allocating.
func TestScoresIntoMatchesPredictProbaAndAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x, labels := gaussianBlobs(rng, 200)
	for i := range labels {
		if i%5 == 0 {
			labels[i] = 2 // unknown
		}
	}
	e := FitExtensible(x, labels, 2, Config{Trees: 50, Tree: TreeConfig{MaxDepth: 6}, Seed: 5})
	out := make([]float64, e.Causes())
	for _, row := range x {
		dist := e.Forest().PredictProba(row)
		share := dist[2] / 2
		e.ScoresInto(row, out)
		for k, v := range out {
			if want := dist[k] + share; math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("cause %d: ScoresInto gives %v, the forest's distribution %v", k, v, want)
			}
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { e.ScoresInto(x[0], out) }); allocs != 0 {
		t.Fatalf("ScoresInto allocates %v times, want 0", allocs)
	}
}

func TestExtensibleRejectsBadLabels(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	FitExtensible([][]float64{{1}}, []int{5}, 2, Config{Trees: 1})
}

func TestFitTreeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	FitTree(nil, nil, 2, nil, TreeConfig{}, rand.New(rand.NewSource(1)))
}

// Property: forests never emit negative probabilities, and deeper forests
// classify the training set at least as well as a depth-1 stump ensemble.
func TestForestProbaNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x, labels := gaussianBlobs(rng, 60)
		fo := Fit(x, labels, 2, Config{Trees: 3, Tree: TreeConfig{MaxDepth: 3}, Seed: seed})
		for _, row := range x {
			for _, p := range fo.PredictProba(row) {
				if p < 0 || p > 1+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Trees != 50 || cfg.Tree.MaxDepth != 10 {
		t.Fatalf("DefaultConfig = %+v, want 50 trees depth 10 (Table I)", cfg)
	}
}

package forest

import (
	"math"
	"math/rand"
	"reflect"
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

// oracleNode is a tree node linked by pointers: the form the forest was
// held in before its wire's flat form became its resident form. Built from
// a forest's wire and walked one pointer at a time, it is the reference the
// flat walk is checked against.
type oracleNode struct {
	feature     int
	threshold   float64
	left, right *oracleNode
	dist        []float64
}

// oracle links each tree of w.
func oracle(w Wire) []*oracleNode {
	var roots []*oracleNode
	for _, ft := range w.Trees {
		nodes := make([]oracleNode, len(ft.Nodes))
		for i, fn := range ft.Nodes {
			nodes[i] = oracleNode{feature: fn.Feature, threshold: fn.Threshold, dist: fn.Dist}
			if fn.Left >= 0 {
				nodes[i].left, nodes[i].right = &nodes[fn.Left], &nodes[fn.Right]
			}
		}
		roots = append(roots, &nodes[0])
	}
	return roots
}

// oracleOf links each tree of f.
func oracleOf(f *Forest) []*oracleNode {
	return oracle((&Extensible{forest: f, causes: f.classes - 1}).Wire())
}

// predictProba returns the class distribution of the leaf x falls into.
func (n *oracleNode) predictProba(x []float64) []float64 {
	for n.left != nil {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.dist
}

// depth returns the depth of the tree (a single leaf has depth 0).
func (n *oracleNode) depth() int {
	if n.left == nil {
		return 0
	}
	return max(n.left.depth(), n.right.depth()) + 1
}

// oracleProba averages the leaf distributions of all trees.
func oracleProba(trees []*oracleNode, x []float64) []float64 {
	dist := make([]float64, len(trees[0].predictProba(x)))
	for _, t := range trees {
		for k, v := range t.predictProba(x) {
			dist[k] += v
		}
	}
	inv := 1 / float64(len(trees))
	for k := range dist {
		dist[k] *= inv
	}
	return dist
}

// oracleScores is ScoresInto over dense distributions: every class of
// every tree's leaf added in tree order.
func oracleScores(trees []*oracleNode, causes int, x []float64) []float64 {
	out := make([]float64, causes)
	var unknown float64
	for _, t := range trees {
		dist := t.predictProba(x)
		for k := range out {
			out[k] += dist[k]
		}
		unknown += dist[causes]
	}
	inv := 1 / float64(len(trees))
	share := unknown * inv / float64(causes)
	for k := range out {
		out[k] = out[k]*inv + share
	}
	return out
}

// argmax returns the first class of the largest probability.
func argmax(dist []float64) int {
	arg := 0
	for k, v := range dist {
		if v > dist[arg] {
			arg = k
		}
	}
	return arg
}

// fitOne grows one tree on every row, as a forest of that tree.
func fitOne(x [][]float64, labels []int, classes int, cfg TreeConfig, rng *rand.Rand) *Forest {
	nodes, leaves := fitTree(x, labels, classes, nil, cfg, rng)
	return &Forest{trees: [][]node{nodes}, leaves: leaves, classes: classes}
}

func TestTreeFitsPureSplit(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {10}, {11}, {12}}
	labels := []int{0, 0, 0, 1, 1, 1}
	tree := oracleOf(fitOne(x, labels, 2, TreeConfig{MaxFeatures: 1}, rand.New(rand.NewSource(1))))[0]
	for i, row := range x {
		if argmax(tree.predictProba(row)) != labels[i] {
			t.Fatalf("row %d misclassified", i)
		}
	}
	if tree.depth() != 1 {
		t.Fatalf("trivially separable data should give depth 1, got %d", tree.depth())
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
	tree := oracleOf(fitOne(x, labels, 3, TreeConfig{MaxDepth: 4, MaxFeatures: 3}, rng))[0]
	if d := tree.depth(); d > 4 {
		t.Fatalf("depth %d exceeds max 4", d)
	}
}

func TestTreeLeafDistributionSumsToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, labels := gaussianBlobs(rng, 100)
	tree := oracleOf(fitOne(x, labels, 2, TreeConfig{MaxDepth: 3}, rng))[0]
	for _, row := range x {
		var s float64
		for _, p := range tree.predictProba(row) {
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
	tree := oracleOf(fitOne(x, labels, 2, TreeConfig{}, rand.New(rand.NewSource(4))))[0]
	if tree.depth() != 0 {
		t.Fatal("pure data must give a single leaf")
	}
	if p := tree.predictProba([]float64{5}); p[1] != 1 {
		t.Fatalf("leaf dist = %v", p)
	}
}

func TestForestAccuracyOnBlobs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, labels := gaussianBlobs(rng, 400)
	trees := oracleOf(Fit(x, labels, 2, Config{Trees: 20, Tree: TreeConfig{MaxDepth: 6}, Seed: 1}))
	correct := 0
	for i, row := range x {
		if argmax(oracleProba(trees, row)) == labels[i] {
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
	p1, p2 := oracleProba(oracleOf(f1), probe), oracleProba(oracleOf(f2), probe)
	for k := range p1 {
		if p1[k] != p2[k] {
			t.Fatalf("forest depends on GOMAXPROCS: %v vs %v", p1, p2)
		}
	}
	if !reflect.DeepEqual(f1, f2) {
		t.Fatal("the fitted forest depends on GOMAXPROCS")
	}
}

func TestForestProbaNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x, labels := gaussianBlobs(rng, 100)
	f := Fit(x, labels, 10, Config{Trees: 5, Tree: TreeConfig{MaxDepth: 4}, Seed: 2})
	_ = labels
	var s float64
	for _, p := range oracleProba(oracleOf(f), x[0]) {
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

// ScoresInto sums the trees as the pointer walk's predictProba does, so its
// scores are the forest's distribution with the unknown mass spread, bit
// for bit — and it writes them into the caller's buffer without allocating.
func TestScoresIntoMatchesPredictProbaAndAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	x, labels := gaussianBlobs(rng, 200)
	for i := range labels {
		if i%5 == 0 {
			labels[i] = 2 // unknown
		}
	}
	e := FitExtensible(x, labels, 2, Config{Trees: 50, Tree: TreeConfig{MaxDepth: 6}, Seed: 5})
	trees := oracle(e.Wire())
	out := make([]float64, e.Causes())
	for _, row := range x {
		dist := oracleProba(trees, row)
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
	fitTree(nil, nil, 2, nil, TreeConfig{}, rand.New(rand.NewSource(1)))
}

// Property: forests never emit negative probabilities, and deeper forests
// classify the training set at least as well as a depth-1 stump ensemble.
func TestForestProbaNonNegativeProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x, labels := gaussianBlobs(rng, 60)
		fo := oracleOf(Fit(x, labels, 2, Config{Trees: 3, Tree: TreeConfig{MaxDepth: 3}, Seed: seed}))
		for _, row := range x {
			for _, p := range oracleProba(fo, row) {
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

// FuzzForestScores checks the flat walk against the pointer walk: for any
// input — NaN, ±Inf, ±0, or a feature exactly on a split's threshold (a
// bit of snap per feature) — and any value in one leaf entry (a −0, a NaN
// or a negative one included), ScoresInto gives the oracle's scores bit
// for bit.
func FuzzForestScores(f *testing.F) {
	fitted := goldenForest()
	thresholds := make([][]float64, 6)
	for _, ft := range fitted.Wire().Trees {
		for _, fn := range ft.Nodes {
			if fn.Left >= 0 {
				thresholds[fn.Feature] = append(thresholds[fn.Feature], fn.Threshold)
			}
		}
	}
	negZero, inf := math.Copysign(0, -1), math.Inf(1)
	f.Add(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, uint8(0), uint16(0), 0.5)
	f.Add(math.NaN(), inf, -inf, negZero, 0.0, 1.0, uint8(0), uint16(1), negZero)
	f.Add(1.0, -1.0, 2.0, -2.0, 3.0, -3.0, uint8(0x3f), uint16(7), math.NaN())
	f.Add(negZero, negZero, negZero, negZero, negZero, negZero, uint8(0x15), uint16(300), -0.25)
	f.Fuzz(func(t *testing.T, x0, x1, x2, x3, x4, x5 float64, snap uint8, at uint16, p float64) {
		x := []float64{x0, x1, x2, x3, x4, x5}
		for j, thr := range thresholds {
			if snap&(1<<j) != 0 && len(thr) > 0 {
				x[j] = thr[math.Float64bits(x[j])%uint64(len(thr))]
			}
		}
		w := fitted.Wire()
		// Overwrite one entry of one leaf, counting leaves across trees.
		var leaves []flatNode
		for _, ft := range w.Trees {
			for _, fn := range ft.Nodes {
				if fn.Left < 0 {
					leaves = append(leaves, fn)
				}
			}
		}
		leaf := leaves[int(at)%len(leaves)]
		leaf.Dist[int(at)%len(leaf.Dist)] = p
		e, err := w.Extensible()
		if err != nil {
			t.Fatal(err)
		}
		got := e.ScoresInto(x, make([]float64, e.Causes()))
		want := oracleScores(oracle(w), e.Causes(), x)
		for k := range want {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("x %v, leaf entry %v: cause %d scores %v, the pointer walk %v", x, p, k, got[k], want[k])
			}
		}
	})
}

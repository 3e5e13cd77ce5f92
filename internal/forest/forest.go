package forest

import (
	"fmt"
	"runtime"
	"sync"

	"diagnet/internal/stats"
)

// Config controls a random forest ensemble. The zero value is completed by
// DefaultConfig's paper values.
type Config struct {
	Trees int // number of estimators
	Tree  TreeConfig
	Seed  int64
}

// DefaultConfig returns the paper's auxiliary-model hyperparameters
// (Table I): Gini impurity, 50 estimators, maximum depth 10.
func DefaultConfig() Config {
	return Config{Trees: 50, Tree: TreeConfig{MaxDepth: 10}}
}

// Forest is a fitted random forest classifier, held in the flat form its
// wire stores: each tree's nodes in preorder, and every leaf's entries in
// one slab.
type Forest struct {
	trees   [][]node
	leaves  []entry
	classes int
}

// Fit trains cfg.Trees CART trees on bootstrap resamples of (x, labels).
// It ranks every feature column once, and the trees share the ranks.
// Trees are fitted in parallel across GOMAXPROCS workers; each tree derives
// its own RNG stream from cfg.Seed, so the fitted ensemble is identical
// regardless of parallelism. A non-finite feature is refused with a panic.
func Fit(x [][]float64, labels []int, classes int, cfg Config) *Forest {
	if cfg.Trees <= 0 {
		cfg.Trees = 50
	}
	if len(x) != len(labels) {
		panic(fmt.Sprintf("forest: %d rows vs %d labels", len(x), len(labels)))
	}
	cols := rankColumns(x)
	f := &Forest{trees: make([][]node, cfg.Trees), classes: classes}
	leaves := make([][]entry, cfg.Trees)
	workers := runtime.GOMAXPROCS(0)
	if workers > cfg.Trees {
		workers = cfg.Trees
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range next {
				rng := stats.NewRand(cfg.Seed, int64(ti))
				boot := make([]int, len(x))
				for i := range boot {
					boot[i] = rng.Intn(len(x))
				}
				f.trees[ti], leaves[ti] = fitTree(cols, labels, classes, boot, cfg.Tree, rng)
			}
		}()
	}
	for ti := 0; ti < cfg.Trees; ti++ {
		next <- ti
	}
	close(next)
	wg.Wait()
	// Move each tree's leaves into the forest's slab, in tree order.
	for ti, nodes := range f.trees {
		base := int32(len(f.leaves))
		for i := range nodes {
			if nodes[i].isLeaf() {
				nodes[i].feature += base
			}
		}
		f.leaves = append(f.leaves, leaves[ti]...)
	}
	return f
}

// Classes returns the number of classes the forest was fitted with.
func (f *Forest) Classes() int { return f.classes }

// Trees returns the number of fitted estimators.
func (f *Forest) Trees() int { return len(f.trees) }

// Width returns the shortest input the forest can score: one past the
// largest feature any of its splits reads.
func (f *Forest) Width() int {
	w := 0
	for _, nodes := range f.trees {
		for _, n := range nodes {
			if !n.isLeaf() {
				w = max(w, int(n.feature)+1)
			}
		}
	}
	return w
}

// leaf returns the entries of the leaf x falls into in the tree nodes.
func (f *Forest) leaf(nodes []node, x []float64) []entry {
	i := 0
	for !nodes[i].isLeaf() {
		if x[nodes[i].feature] <= nodes[i].threshold {
			i++
		} else {
			i = int(nodes[i].right)
		}
	}
	return f.entries(nodes[i])
}

// entries returns the slab run of the leaf n.
func (f *Forest) entries(n node) []entry {
	return f.leaves[n.feature : n.feature-n.right]
}

// Extensible is the paper's extensible random-forest baseline (§IV-B-a):
// the feature dimension is fixed to the maximum possible size, missing
// landmark values are zero-filled by the caller, and a special "unknown"
// class — used as the label of nominal samples — has its predicted score
// redistributed evenly over every concrete cause so that causes never seen
// during training keep a non-null score.
type Extensible struct {
	forest *Forest
	// causes is the number of concrete root-cause classes; the unknown
	// class has index causes.
	causes int
}

// FitExtensible trains the wrapper. Labels must be in [0, causes] where
// the value causes denotes the "unknown"/nominal class.
func FitExtensible(x [][]float64, labels []int, causes int, cfg Config) *Extensible {
	for i, y := range labels {
		if y < 0 || y > causes {
			panic(fmt.Sprintf("forest: extensible label %d out of [0,%d] at row %d", y, causes, i))
		}
	}
	return &Extensible{forest: Fit(x, labels, causes+1, cfg), causes: causes}
}

// Scores returns per-cause scores for x: the forest's distribution over
// concrete causes with the unknown-class mass spread uniformly.
func (e *Extensible) Scores(x []float64) []float64 {
	return e.ScoresInto(x, make([]float64, e.causes))
}

// ScoresInto is Scores writing into a caller-provided buffer of Causes()
// elements and allocating nothing: the batch-friendly entry point serving
// workers use. The trees' leaf distributions are summed into out in tree
// order; a class a leaf does not list would add +0, which leaves every sum
// (starting at +0) with the same bits, so it is skipped. It returns out.
func (e *Extensible) ScoresInto(x, out []float64) []float64 {
	if len(out) != e.causes {
		panic("forest: ScoresInto buffer has wrong length")
	}
	clear(out)
	var unknown float64
	for _, nodes := range e.forest.trees {
		for _, en := range e.forest.leaf(nodes, x) {
			if int(en.class) == e.causes {
				unknown += en.p
			} else {
				out[en.class] += en.p
			}
		}
	}
	inv := 1 / float64(len(e.forest.trees))
	share := unknown * inv / float64(e.causes)
	for k := range out {
		out[k] = out[k]*inv + share
	}
	return out
}

// Causes returns the number of concrete root-cause classes.
func (e *Extensible) Causes() int { return e.causes }

// Forest exposes the wrapped ensemble (for diagnostics and tests).
func (e *Extensible) Forest() *Forest { return e.forest }

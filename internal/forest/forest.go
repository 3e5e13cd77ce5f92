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

// Forest is a fitted random forest classifier.
type Forest struct {
	trees   []*Tree
	classes int
}

// Fit trains cfg.Trees CART trees on bootstrap resamples of (x, labels).
// Trees are fitted in parallel across GOMAXPROCS workers; each tree derives
// its own RNG stream from cfg.Seed, so the fitted ensemble is identical
// regardless of parallelism.
func Fit(x [][]float64, labels []int, classes int, cfg Config) *Forest {
	if cfg.Trees <= 0 {
		cfg.Trees = 50
	}
	f := &Forest{trees: make([]*Tree, cfg.Trees), classes: classes}
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
				f.trees[ti] = FitTree(x, labels, classes, boot, cfg.Tree, rng)
			}
		}()
	}
	for ti := 0; ti < cfg.Trees; ti++ {
		next <- ti
	}
	close(next)
	wg.Wait()
	return f
}

// Classes returns the number of classes the forest was fitted with.
func (f *Forest) Classes() int { return f.classes }

// Trees returns the number of fitted estimators.
func (f *Forest) Trees() int { return len(f.trees) }

// PredictProba averages the leaf distributions of all trees.
func (f *Forest) PredictProba(x []float64) []float64 {
	dist := make([]float64, f.classes)
	for _, t := range f.trees {
		for k, v := range t.PredictProba(x) {
			dist[k] += v
		}
	}
	inv := 1 / float64(len(f.trees))
	for k := range dist {
		dist[k] *= inv
	}
	return dist
}

// Width returns the shortest input the forest can score: one past the
// largest feature any of its splits reads.
func (f *Forest) Width() int {
	w := 0
	var walk func(n *node)
	walk = func(n *node) {
		if !n.isLeaf() {
			w = max(w, n.Feature+1)
			walk(n.Left)
			walk(n.Right)
		}
	}
	for _, t := range f.trees {
		walk(t.root)
	}
	return w
}

// Predict returns the arg-max class for x.
func (f *Forest) Predict(x []float64) int {
	dist := f.PredictProba(x)
	arg := 0
	for k, v := range dist {
		if v > dist[arg] {
			arg = k
		}
	}
	return arg
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
// order, as PredictProba sums them, so both give the same bits. It returns
// out.
func (e *Extensible) ScoresInto(x, out []float64) []float64 {
	if len(out) != e.causes {
		panic("forest: ScoresInto buffer has wrong length")
	}
	clear(out)
	var unknown float64
	for _, t := range e.forest.trees {
		dist := t.PredictProba(x)
		for k := range out {
			out[k] += dist[k]
		}
		unknown += dist[e.causes]
	}
	inv := 1 / float64(len(e.forest.trees))
	share := unknown * inv / float64(e.causes)
	for k := range out {
		out[k] = out[k]*inv + share
	}
	return out
}

// UnknownScore returns the probability mass assigned to the unknown class.
func (e *Extensible) UnknownScore(x []float64) []float64 {
	return e.forest.PredictProba(x)
}

// Causes returns the number of concrete root-cause classes.
func (e *Extensible) Causes() int { return e.causes }

// Forest exposes the wrapped ensemble (for diagnostics and tests).
func (e *Extensible) Forest() *Forest { return e.forest }

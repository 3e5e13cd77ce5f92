// Package forest implements CART decision trees and random forests with
// the hyperparameters NetPoirot-style baselines use in the DiagNet paper
// (Table I: Gini impurity, 50 estimators, maximum depth 10), plus the
// paper's *extensible* random-forest wrapper (§IV-B-a) that zero-fills
// missing landmark features and redistributes the score of a special
// "unknown" class across every concrete root cause.
package forest

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// node is one tree node, held in the preorder its wire numbers it by: a
// split's left child is the node right after it.
type node struct {
	// Split: go left when x[feature] <= threshold, else to node right.
	threshold float64
	// feature is a split's feature and a leaf's first entry in the
	// forest's slab.
	feature int32
	// right is a split's right child, which comes after the split, so it
	// is positive; a leaf holds the negated count of its entries.
	right int32
}

func (n node) isLeaf() bool { return n.right <= 0 }

// entry is one class probability of a leaf. A leaf keeps only the entries
// whose bits are not +0: the dense distribution's other classes.
type entry struct {
	class int32
	p     float64
}

// TreeConfig controls a single CART tree.
type TreeConfig struct {
	MaxDepth int // maximum depth; <=0 means unlimited
	// MinSamplesSplit is the minimum node size eligible for splitting.
	MinSamplesSplit int
	// MaxFeatures is the number of candidate features examined per split;
	// <=0 means floor(sqrt(num features)), the random-forest default.
	MaxFeatures int
}

func (c TreeConfig) withDefaults() TreeConfig {
	if c.MinSamplesSplit <= 0 {
		c.MinSamplesSplit = 2
	}
	return c
}

// fitTree grows a tree on rows X (n×m as slices) with integer labels using
// Gini impurity. idx selects which rows participate (bootstrap support);
// pass nil for all rows. It returns the tree's nodes and its leaves'
// entries, which each leaf indexes from 0.
func fitTree(x [][]float64, labels []int, classes int, idx []int, cfg TreeConfig, rng *rand.Rand) ([]node, []entry) {
	if len(x) == 0 {
		panic("forest: fitTree on empty dataset")
	}
	if len(x) != len(labels) {
		panic(fmt.Sprintf("forest: %d rows vs %d labels", len(x), len(labels)))
	}
	cfg = cfg.withDefaults()
	if idx == nil {
		idx = make([]int, len(x))
		for i := range idx {
			idx[i] = i
		}
	}
	m := len(x[0])
	maxFeat := cfg.MaxFeatures
	if maxFeat <= 0 {
		maxFeat = int(math.Sqrt(float64(m)))
		if maxFeat < 1 {
			maxFeat = 1
		}
	}
	if maxFeat > m {
		maxFeat = m
	}
	b := &builder{x: x, labels: labels, classes: classes, cfg: cfg, maxFeat: maxFeat, rng: rng}
	b.grow(idx, 0)
	return b.nodes, b.leaves
}

type builder struct {
	x       [][]float64
	labels  []int
	classes int
	cfg     TreeConfig
	maxFeat int
	rng     *rand.Rand
	nodes   []node
	leaves  []entry
}

func (b *builder) leaf(idx []int) {
	dist := make([]float64, b.classes)
	for _, i := range idx {
		dist[b.labels[i]]++
	}
	n := float64(len(idx))
	lo := len(b.leaves)
	for k, c := range dist {
		if c != 0 {
			b.leaves = append(b.leaves, entry{class: int32(k), p: c / n})
		}
	}
	b.nodes = append(b.nodes, node{feature: int32(lo), right: int32(lo - len(b.leaves))})
}

// grow appends the subtree over idx in preorder: the split, then its left
// subtree, then its right one. The left subtree draws from the RNG first.
func (b *builder) grow(idx []int, depth int) {
	if len(idx) < b.cfg.MinSamplesSplit || (b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) || b.pure(idx) {
		b.leaf(idx)
		return
	}
	feat, thr, ok := b.bestSplit(idx)
	if !ok {
		b.leaf(idx)
		return
	}
	var left, right []int
	for _, i := range idx {
		if b.x[i][feat] <= thr {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	if len(left) == 0 || len(right) == 0 {
		b.leaf(idx)
		return
	}
	at := len(b.nodes)
	b.nodes = append(b.nodes, node{feature: int32(feat), threshold: thr})
	b.grow(left, depth+1)
	b.nodes[at].right = int32(len(b.nodes))
	b.grow(right, depth+1)
}

func (b *builder) pure(idx []int) bool {
	first := b.labels[idx[0]]
	for _, i := range idx[1:] {
		if b.labels[i] != first {
			return false
		}
	}
	return true
}

// bestSplit scans a random feature subset for the split with maximal Gini
// gain. Class counts are updated incrementally so each candidate feature
// costs O(n log n) for the sort plus O(n) for the scan.
func (b *builder) bestSplit(idx []int) (feature int, threshold float64, ok bool) {
	m := len(b.x[0])
	feats := b.rng.Perm(m)[:b.maxFeat]
	n := len(idx)

	// Parent class counts.
	parent := make([]float64, b.classes)
	for _, i := range idx {
		parent[b.labels[i]]++
	}

	bestGain := 1e-12
	sorted := make([]int, n)
	leftCnt := make([]float64, b.classes)
	for _, f := range feats {
		copy(sorted, idx)
		sort.Slice(sorted, func(a, c int) bool { return b.x[sorted[a]][f] < b.x[sorted[c]][f] })
		for k := range leftCnt {
			leftCnt[k] = 0
		}
		// Incremental sum of squared counts for O(1) Gini updates.
		var leftSq, rightSq float64
		for _, c := range parent {
			rightSq += c * c
		}
		parentGini := 1 - rightSq/float64(n*n)
		for i := 0; i < n-1; i++ {
			k := b.labels[sorted[i]]
			leftSq += 2*leftCnt[k] + 1
			leftCnt[k]++
			rc := parent[k] - leftCnt[k]
			rightSq -= 2*rc + 1
			vi, vj := b.x[sorted[i]][f], b.x[sorted[i+1]][f]
			if vi == vj {
				continue
			}
			nl, nr := float64(i+1), float64(n-i-1)
			giniL := 1 - leftSq/(nl*nl)
			giniR := 1 - rightSq/(nr*nr)
			gain := parentGini - (nl*giniL+nr*giniR)/float64(n)
			if gain > bestGain {
				bestGain = gain
				feature = f
				threshold = (vi + vj) / 2
				ok = true
			}
		}
	}
	return feature, threshold, ok
}

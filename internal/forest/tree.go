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
	"slices"
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

// columns is a fit's training rows with every feature column ranked once,
// which all the fit's trees read and none writes: vals[f] holds column f's
// distinct values in ascending order (±0 are one value: they compare
// equal), and rank[f*rows+i] the index in vals[f] of row i's value.
type columns struct {
	x    [][]float64
	rows int
	rank []uint32
	vals [][]float64
}

// rankColumns ranks the columns of x. It refuses an empty x, ragged rows
// and any non-finite feature, on which the order — and with it the tree —
// would be undefined.
func rankColumns(x [][]float64) *columns {
	if len(x) == 0 {
		panic("forest: fit on empty dataset")
	}
	n, m := len(x), len(x[0])
	for i, row := range x {
		if len(row) != m {
			panic(fmt.Sprintf("forest: row %d has %d features, row 0 has %d", i, len(row), m))
		}
		for f, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				panic(fmt.Sprintf("forest: non-finite feature %v at row %d, column %d", v, i, f))
			}
		}
	}
	c := &columns{x: x, rows: n, rank: make([]uint32, n*m), vals: make([][]float64, m)}
	for f := range c.vals {
		vals := make([]float64, n)
		for i, row := range x {
			vals[i] = row[f]
		}
		slices.Sort(vals)
		vals = slices.Compact(vals)
		rank := c.rank[f*n : (f+1)*n]
		for i, row := range x {
			r, _ := slices.BinarySearch(vals, row[f])
			rank[i] = uint32(r)
		}
		c.vals[f] = vals
	}
	return c
}

// fitTree grows a tree on the ranked rows with integer labels using Gini
// impurity. idx selects which rows participate (bootstrap support; a row
// may repeat), and the tree owns it: growing reorders it. It returns the
// tree's nodes and its leaves' entries, which each leaf indexes from 0.
func fitTree(c *columns, labels []int, classes int, idx []int, cfg TreeConfig, rng *rand.Rand) ([]node, []entry) {
	cfg = cfg.withDefaults()
	m := len(c.vals)
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
	b := &builder{
		columns: c, labels: labels, classes: classes, cfg: cfg, maxFeat: maxFeat, rng: rng,
		keys: make([]uint64, len(idx)), tmp: make([]uint64, len(idx)),
		counts: make([]float64, classes), leftCnt: make([]float64, classes),
	}
	b.grow(idx, 0)
	return b.nodes, b.leaves
}

type builder struct {
	*columns
	labels  []int
	classes int
	cfg     TreeConfig
	maxFeat int
	rng     *rand.Rand
	nodes   []node
	leaves  []entry

	// Scratch every node reuses: the (rank, label) keys of one column and
	// the radix sort's second buffer, and two class histograms.
	keys, tmp       []uint64
	counts, leftCnt []float64
}

func (b *builder) leaf(idx []int) {
	dist := b.counts
	clear(dist)
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
// Nothing a node computes depends on the order of its rows, so idx is
// partitioned in place.
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
	nl := 0
	for j, i := range idx {
		if b.x[i][feat] <= thr {
			idx[nl], idx[j] = i, idx[nl]
			nl++
		}
	}
	if nl == 0 || nl == len(idx) {
		b.leaf(idx)
		return
	}
	at := len(b.nodes)
	b.nodes = append(b.nodes, node{feature: int32(feat), threshold: thr})
	b.grow(idx[:nl], depth+1)
	b.nodes[at].right = int32(len(b.nodes))
	b.grow(idx[nl:], depth+1)
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
// gain. Per candidate feature it sorts the node's (rank, label) keys as
// plain integers and scans the boundaries between distinct values in
// ascending order, updating class counts incrementally. The counts and
// their sums of squares are whole numbers, exact in float64, so the gain at
// a boundary does not depend on the order of the rows tied on either side
// of it, and the threshold is the midpoint of the two distinct values. A
// feature constant in the node has no boundary and is skipped.
func (b *builder) bestSplit(idx []int) (feature int, threshold float64, ok bool) {
	feats := b.rng.Perm(len(b.vals))[:b.maxFeat]
	n := len(idx)

	// Parent class counts and their sum of squares, for O(1) Gini updates.
	parent := b.counts
	clear(parent)
	for _, i := range idx {
		parent[b.labels[i]]++
	}
	var parentSq float64
	for _, c := range parent {
		parentSq += c * c
	}
	parentGini := 1 - parentSq/float64(n*n)

	bestGain := 1e-12
	keys, leftCnt := b.keys[:n], b.leftCnt
	for _, f := range feats {
		rank := b.rank[f*b.rows : (f+1)*b.rows]
		lo, hi := rank[idx[0]], rank[idx[0]]
		for j, i := range idx {
			r := rank[i]
			lo, hi = min(lo, r), max(hi, r)
			keys[j] = uint64(r)<<32 | uint64(b.labels[i])
		}
		if lo == hi {
			continue
		}
		sortByRank(keys, b.tmp[:n], hi)
		clear(leftCnt)
		leftSq, rightSq := 0.0, parentSq
		for i := 0; i < n-1; i++ {
			k := uint32(keys[i])
			leftSq += 2*leftCnt[k] + 1
			leftCnt[k]++
			rc := parent[k] - leftCnt[k]
			rightSq -= 2*rc + 1
			ri, rj := keys[i]>>32, keys[i+1]>>32
			if ri == rj {
				continue
			}
			nl, nr := float64(i+1), float64(n-i-1)
			giniL := 1 - leftSq/(nl*nl)
			giniR := 1 - rightSq/(nr*nr)
			gain := parentGini - (nl*giniL+nr*giniR)/float64(n)
			if gain > bestGain {
				bestGain = gain
				feature = f
				threshold = (b.vals[f][ri] + b.vals[f][rj]) / 2
				ok = true
			}
		}
	}
	return feature, threshold, ok
}

// radixFrom is the number of keys from which sortByRank radix-sorts.
const radixFrom = 64

// sortByRank orders keys by their high 32 bits, the rank, none of which
// exceeds hi; tmp is scratch of the same length. Keys of one rank come out
// in no particular order. Few keys are sorted whole, many by a radix sort
// over the rank's bytes.
func sortByRank(keys, tmp []uint64, hi uint32) {
	if len(keys) < radixFrom {
		slices.Sort(keys)
		return
	}
	src, dst := keys, tmp
	for shift := 32; shift < 64 && hi>>(shift-32) != 0; shift += 8 {
		var count [256]int
		for _, k := range src {
			count[byte(k>>shift)]++
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, k := range src {
			d := byte(k >> shift)
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
}

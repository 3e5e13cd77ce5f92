package forest

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"diagnet/internal/stats"
)

// refBuilder is the tree builder as it was before splits were searched on
// ranks: every node sorts its rows by each candidate feature's value with
// sort.Slice, and appends its children's rows to fresh slices. It is the
// reference the rank-based builder is checked against.
type refBuilder struct {
	x       [][]float64
	labels  []int
	classes int
	cfg     TreeConfig
	maxFeat int
	rng     *rand.Rand
	nodes   []node
	leaves  []entry
}

// refFit is Fit on refBuilder, one tree after the other.
func refFit(x [][]float64, labels []int, classes int, cfg Config) *Forest {
	f := &Forest{classes: classes}
	for ti := 0; ti < cfg.Trees; ti++ {
		rng := stats.NewRand(cfg.Seed, int64(ti))
		boot := make([]int, len(x))
		for i := range boot {
			boot[i] = rng.Intn(len(x))
		}
		tc := cfg.Tree.withDefaults()
		m := len(x[0])
		maxFeat := tc.MaxFeatures
		if maxFeat <= 0 {
			maxFeat = max(int(math.Sqrt(float64(m))), 1)
		}
		maxFeat = min(maxFeat, m)
		b := &refBuilder{x: x, labels: labels, classes: classes, cfg: tc, maxFeat: maxFeat, rng: rng}
		b.grow(boot, 0)
		base := int32(len(f.leaves))
		for i := range b.nodes {
			if b.nodes[i].isLeaf() {
				b.nodes[i].feature += base
			}
		}
		f.trees = append(f.trees, b.nodes)
		f.leaves = append(f.leaves, b.leaves...)
	}
	return f
}

func (b *refBuilder) leaf(idx []int) {
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

func (b *refBuilder) grow(idx []int, depth int) {
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

func (b *refBuilder) pure(idx []int) bool {
	for _, i := range idx[1:] {
		if b.labels[i] != b.labels[idx[0]] {
			return false
		}
	}
	return true
}

func (b *refBuilder) bestSplit(idx []int) (feature int, threshold float64, ok bool) {
	m := len(b.x[0])
	feats := b.rng.Perm(m)[:b.maxFeat]
	n := len(idx)
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

// sameForest reports how got differs from want, node by node and leaf
// entry by leaf entry, thresholds and probabilities by their bits; "" when
// it does not.
func sameForest(got, want *Forest) string {
	if len(got.trees) != len(want.trees) || len(got.leaves) != len(want.leaves) {
		return "tree or leaf-entry counts differ"
	}
	for ti := range want.trees {
		g, w := got.trees[ti], want.trees[ti]
		if len(g) != len(w) {
			return "a tree's node count differs"
		}
		for i := range w {
			if g[i].feature != w[i].feature || g[i].right != w[i].right ||
				math.Float64bits(g[i].threshold) != math.Float64bits(w[i].threshold) {
				return "a node differs"
			}
		}
	}
	for i := range want.leaves {
		g, w := got.leaves[i], want.leaves[i]
		if g.class != w.class || math.Float64bits(g.p) != math.Float64bits(w.p) {
			return "a leaf entry differs"
		}
	}
	return ""
}

// fuzzValues are the feature values a fuzzed dataset draws from: ties,
// ±0, neighbouring floats whose midpoint rounds onto one of them, the
// extremes and the subnormals.
var fuzzValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 2, 3, 0.1, 0.2, 0.30000000000000004,
	math.Nextafter(1, 2), math.Nextafter(1, 0), math.MaxFloat64, -math.MaxFloat64,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
}

// FuzzFitMatchesReference fits small datasets with ties, ±0, repeated and
// constant columns, bootstrap duplicates and up to 64 classes, and requires
// the rank-based builder to give refBuilder's forest: the same nodes and
// leaf entries, bit for bit.
func FuzzFitMatchesReference(f *testing.F) {
	f.Add(int64(1), uint32(0), []byte{})
	f.Add(int64(2), uint32(0x00a5_0327), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15})
	f.Add(int64(3), uint32(0x0f3f_0530), []byte{0, 1, 0x81, 0x40, 0x41, 0xc0, 3, 3, 3})
	f.Add(int64(4), uint32(0x07ff_ffff), []byte{10, 11, 0x8a, 0x8b, 12, 13, 0x20, 0x21})
	// 600 rows over two columns of eighths: hundreds of distinct values,
	// more than one byte of rank.
	f.Add(int64(5), uint32(0x338f), bytes.Repeat([]byte{0xc0}, 1202))
	f.Fuzz(func(t *testing.T, seed int64, shape uint32, data []byte) {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + int(shape%600)
		cols := 1 + int(shape>>9%6)
		classes := 1 + int(shape>>12%64)
		cfg := Config{
			Trees: 1 + int(shape>>18%3),
			Tree: TreeConfig{
				MaxDepth:        int(shape >> 20 % 8),
				MinSamplesSplit: int(shape >> 23 % 4),
				MaxFeatures:     int(shape >> 25 % 4),
			},
			Seed: seed,
		}
		// Each byte picks a value: from the palette, a small integer
		// (top bits 10) or one of 4096 eighths (top bits 11), so
		// that a column can hold more distinct values than a byte counts.
		// A column whose first byte is 0x40 or 0x41 repeats the column
		// before it or is constant. Bytes past the data are the seed's.
		next := func() byte {
			if len(data) == 0 {
				return byte(rng.Intn(256))
			}
			b := data[0]
			data = data[1:]
			return b
		}
		x := make([][]float64, rows)
		for i := range x {
			x[i] = make([]float64, cols)
		}
		for j := 0; j < cols; j++ {
			mode := next()
			for i := range x {
				switch {
				case mode == 0x40 && j > 0:
					x[i][j] = x[i][j-1]
				case mode == 0x41:
					x[i][j] = fuzzValues[j%len(fuzzValues)]
				default:
					switch v := next(); v >> 6 {
					case 3:
						x[i][j] = float64(rng.Intn(4096)) / 8
					case 2:
						x[i][j] = float64(v&7) - 3
					default:
						x[i][j] = fuzzValues[int(v)%len(fuzzValues)]
					}
				}
			}
		}
		labels := make([]int, rows)
		for i := range labels {
			labels[i] = int(next()) % classes
		}
		if diff := sameForest(Fit(x, labels, classes, cfg), refFit(x, labels, classes, cfg)); diff != "" {
			t.Fatalf("%s: %d rows × %d columns, %d classes, config %+v", diff, rows, cols, classes, cfg)
		}
	})
}

// A non-finite feature would make the tree depend on the order a sort
// leaves it in; Fit refuses it and names where it is.
func TestFitRefusesNonFiniteFeatures(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		x := [][]float64{{0, 1}, {1, 2}, {2, v}, {3, 4}}
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "row 2, column 1") {
					t.Errorf("feature %v: panic %q, want one naming row 2, column 1", v, msg)
				}
			}()
			FitExtensible(x, []int{0, 1, 0, 1}, 1, Config{Trees: 2, Seed: 1})
		}()
	}
}

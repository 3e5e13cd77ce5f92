package forest

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

func TestExtensibleSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, labels := gaussianBlobs(rng, 150)
	e := FitExtensible(x, labels, 2, Config{Trees: 5, Tree: TreeConfig{MaxDepth: 4}, Seed: 4})

	loaded := decode(t, encode(t, e).Bytes())
	if loaded.Causes() != e.Causes() {
		t.Fatal("causes lost")
	}
	probe := []float64{1, -1}
	a, b := e.Scores(probe), loaded.Scores(probe)
	for k := range a {
		if a[k] != b[k] {
			t.Fatal("loaded extensible scores differ")
		}
	}
}

func TestFlattenRoundTripPreservesDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, labels := gaussianBlobs(rng, 300)
	f := fitOne(x, labels, 2, TreeConfig{MaxDepth: 7}, rng)
	e := &Extensible{forest: f, causes: 1}
	loaded, err := e.Wire().Extensible()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, e) {
		t.Fatal("the forest changed in a round trip through its wire")
	}
	tree, got := oracleOf(f)[0], oracleOf(loaded.Forest())[0]
	if got.depth() != tree.depth() {
		t.Fatalf("depth %d vs %d", got.depth(), tree.depth())
	}
	for i := 0; i < 30; i++ {
		probe := []float64{rng.NormFloat64() * 4, rng.NormFloat64()}
		if argmax(tree.predictProba(probe)) != argmax(got.predictProba(probe)) {
			t.Fatal("prediction changed after round trip")
		}
	}
}

func TestUnflattenRejectsCorruptIndices(t *testing.T) {
	load := func(ft flatTree) error {
		_, err := forestWire{Trees: []flatTree{ft}, Classes: ft.Classes}.toForest()
		return err
	}
	ft := flatTree{Nodes: []flatNode{{Feature: 0, Threshold: 1, Left: 5, Right: 6}}, Classes: 2}
	if load(ft) == nil {
		t.Fatal("want error for out-of-range children")
	}
	if load(flatTree{}) == nil {
		t.Fatal("want error for empty tree")
	}
	leaf := flatNode{Left: -1, Right: -1, Dist: []float64{0.5, 0.5}}
	for name, ft := range map[string]flatTree{
		"a child before its parent (a cycle)": {Nodes: []flatNode{leaf, {Left: 0, Right: 2}, leaf}, Classes: 2},
		"a child that is its parent":          {Nodes: []flatNode{{Left: 0, Right: 1}, leaf}, Classes: 2},
		"a left child that is not next":       {Nodes: []flatNode{{Left: 2, Right: 3}, leaf, leaf, leaf}, Classes: 2},
		"a negative split feature":            {Nodes: []flatNode{{Feature: -1, Left: 1, Right: 2}, leaf, leaf}, Classes: 2},
		"a leaf of another class count":       {Nodes: []flatNode{{Left: 1, Right: 2}, leaf, {Left: -1, Right: -1, Dist: []float64{1}}}, Classes: 2},
		// An int32 keeps the low half of these, which would be feature 0
		// and a valid right child.
		"a split feature beyond int32": {Nodes: []flatNode{{Feature: 1 << 32, Left: 1, Right: 2}, leaf, leaf}, Classes: 2},
		"a right child beyond int32":   {Nodes: []flatNode{{Left: 1, Right: 1<<32 + 2}, leaf, leaf}, Classes: 2},
	} {
		if load(ft) == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

// A leaf entry of −0 or NaN is not +0, so the resident form keeps it and
// saving the loaded forest writes the bytes it was loaded from.
func TestLeafSignedZeroAndNaNSurviveSaveLoadSave(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, labels := gaussianBlobs(rng, 150)
	w := FitExtensible(x, labels, 2, Config{Trees: 3, Tree: TreeConfig{MaxDepth: 3}, Seed: 4}).Wire()
	var leaves int
	for _, ft := range w.Trees {
		for _, fn := range ft.Nodes {
			if fn.Left < 0 {
				fn.Dist[leaves%3] = []float64{math.Copysign(0, -1), math.NaN(), math.Float64frombits(0x7ff0000000000001)}[leaves%3]
				leaves++
			}
		}
	}
	e, err := w.Extensible()
	if err != nil {
		t.Fatal(err)
	}
	first := encode(t, e)
	loaded := decode(t, first.Bytes())
	if !bytes.Equal(first.Bytes(), encode(t, loaded).Bytes()) {
		t.Fatal("encode∘decode∘encode changed the bytes of a forest with −0 and NaN leaf entries")
	}
	for ti, ft := range loaded.Wire().Trees {
		for i, fn := range ft.Nodes {
			for k, p := range fn.Dist {
				if want := w.Trees[ti].Nodes[i].Dist[k]; math.Float64bits(p) != math.Float64bits(want) {
					t.Fatalf("tree %d node %d class %d: %v after a round trip, want %v", ti, i, k, p, want)
				}
			}
		}
	}
}

// A forest wire whose counts disagree is an error, not a wrapper that
// panics when it scores.
func TestExtensibleRejectsInconsistentCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, labels := gaussianBlobs(rng, 150)
	e := FitExtensible(x, labels, 2, Config{Trees: 3, Tree: TreeConfig{MaxDepth: 3}, Seed: 4})
	if _, err := e.Wire().Extensible(); err != nil {
		t.Fatal(err)
	}
	for name, spoil := range map[string]func(w *Wire){
		"classes not causes + 1":    func(w *Wire) { w.Causes++ },
		"a tree of another classes": func(w *Wire) { w.Trees[1].Classes++ },
		"no cause":                  func(w *Wire) { w.Causes, w.Classes = 0, 1 },
	} {
		w := e.Wire()
		spoil(&w)
		if _, err := w.Extensible(); err == nil {
			t.Errorf("%s: want error", name)
		}
	}
}

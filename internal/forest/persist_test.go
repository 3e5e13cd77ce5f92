package forest

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestExtensibleSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, labels := gaussianBlobs(rng, 150)
	e := FitExtensible(x, labels, 2, Config{Trees: 5, Tree: TreeConfig{MaxDepth: 4}, Seed: 4})

	var buf bytes.Buffer
	if err := e.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadExtensible(&buf)
	if err != nil {
		t.Fatal(err)
	}
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

func TestLoadForestGarbage(t *testing.T) {
	if _, err := LoadExtensible(bytes.NewBufferString("nope")); err == nil {
		t.Fatal("want error")
	}
}

func TestFlattenRoundTripPreservesDepth(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, labels := gaussianBlobs(rng, 300)
	tree := FitTree(x, labels, 2, nil, TreeConfig{MaxDepth: 7}, rng)
	got, err := tree.flatten().unflatten()
	if err != nil {
		t.Fatal(err)
	}
	if got.Depth() != tree.Depth() {
		t.Fatalf("depth %d vs %d", got.Depth(), tree.Depth())
	}
	for i := 0; i < 30; i++ {
		probe := []float64{rng.NormFloat64() * 4, rng.NormFloat64()}
		if tree.Predict(probe) != got.Predict(probe) {
			t.Fatal("prediction changed after round trip")
		}
	}
}

func TestUnflattenRejectsCorruptIndices(t *testing.T) {
	ft := flatTree{Nodes: []flatNode{{Feature: 0, Threshold: 1, Left: 5, Right: 6}}, Classes: 2}
	if _, err := ft.unflatten(); err == nil {
		t.Fatal("want error for out-of-range children")
	}
	if _, err := (flatTree{}).unflatten(); err == nil {
		t.Fatal("want error for empty tree")
	}
}

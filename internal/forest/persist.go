package forest

import (
	"fmt"
	"math"
)

// flatNode is the serialized form of a tree node. Children are indices
// into the flat node array, numbered in preorder; -1 marks a leaf.
type flatNode struct {
	Feature   int
	Threshold float64
	Left      int
	Right     int
	Dist      []float64
}

type flatTree struct {
	Nodes   []flatNode
	Classes int
}

// Wire is the gob form of an Extensible, which core's bundle embeds
// inline. It is an alias so that a gob stream keeps naming its type
// forestWire, as every bundle written so far does.
type Wire = forestWire

type forestWire struct {
	Trees   []flatTree
	Classes int
	Causes  int
}

// toForest copies wire into the resident form after checking every tree:
// a split's left child is the node after it and its right child a later
// node of the tree (anything else could be a cycle), its feature is not
// negative and both fit an int32, and a leaf lists one probability per
// class. A leaf keeps each entry whose bits are not +0 — a −0 or a NaN
// too — so that the wire it gives back is the one it was read from.
func (wire forestWire) toForest() (*Forest, error) {
	f := &Forest{trees: make([][]node, len(wire.Trees)), classes: wire.Classes}
	for ti, ft := range wire.Trees {
		if ft.Classes != wire.Classes {
			return nil, fmt.Errorf("forest: tree of %d classes in a forest of %d", ft.Classes, wire.Classes)
		}
		if len(ft.Nodes) == 0 {
			return nil, fmt.Errorf("forest: empty tree")
		}
		nodes := make([]node, len(ft.Nodes))
		for i, fn := range ft.Nodes {
			if fn.Left >= 0 {
				if fn.Left != i+1 || fn.Right <= i || fn.Right >= len(nodes) || fn.Right > math.MaxInt32 ||
					fn.Feature < 0 || fn.Feature > math.MaxInt32 {
					return nil, fmt.Errorf("forest: corrupt tree indices")
				}
				nodes[i] = node{threshold: fn.Threshold, feature: int32(fn.Feature), right: int32(fn.Right)}
				continue
			}
			if len(fn.Dist) != ft.Classes {
				return nil, fmt.Errorf("forest: leaf of %d classes in a tree of %d", len(fn.Dist), ft.Classes)
			}
			lo := len(f.leaves)
			for k, p := range fn.Dist {
				if math.Float64bits(p) != 0 {
					f.leaves = append(f.leaves, entry{class: int32(k), p: p})
				}
			}
			if len(f.leaves) > math.MaxInt32 {
				return nil, fmt.Errorf("forest: more than %d leaf entries", math.MaxInt32)
			}
			nodes[i] = node{feature: int32(lo), right: int32(lo - len(f.leaves))}
		}
		f.trees[ti] = nodes
	}
	if len(f.trees) == 0 {
		return nil, fmt.Errorf("forest: no trees in stream")
	}
	return f, nil
}

// Wire returns e's gob form, each leaf's distribution dense again.
func (e *Extensible) Wire() Wire {
	f := e.forest
	wire := forestWire{Trees: make([]flatTree, len(f.trees)), Classes: f.classes, Causes: e.causes}
	for ti, nodes := range f.trees {
		ft := flatTree{Nodes: make([]flatNode, len(nodes)), Classes: f.classes}
		for i, n := range nodes {
			if n.isLeaf() {
				dist := make([]float64, f.classes)
				for _, en := range f.entries(n) {
					dist[en.class] = en.p
				}
				ft.Nodes[i] = flatNode{Left: -1, Right: -1, Dist: dist}
			} else {
				ft.Nodes[i] = flatNode{Feature: int(n.feature), Threshold: n.threshold, Left: i + 1, Right: int(n.right)}
			}
		}
		wire.Trees[ti] = ft
	}
	return wire
}

// Extensible rebuilds the wrapper wire is the form of.
func (wire forestWire) Extensible() (*Extensible, error) {
	if wire.Causes < 1 || wire.Classes != wire.Causes+1 {
		return nil, fmt.Errorf("forest: %d classes for %d causes", wire.Classes, wire.Causes)
	}
	f, err := wire.toForest()
	if err != nil {
		return nil, err
	}
	return &Extensible{forest: f, causes: wire.Causes}, nil
}

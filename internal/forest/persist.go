package forest

import (
	"encoding/gob"
	"fmt"
	"io"
)

// flatNode is the serialized form of a tree node. Children are indices
// into the flat node array; -1 marks a leaf.
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

func (t *Tree) flatten() flatTree {
	ft := flatTree{Classes: t.classes}
	var walk func(n *node) int
	walk = func(n *node) int {
		idx := len(ft.Nodes)
		ft.Nodes = append(ft.Nodes, flatNode{Left: -1, Right: -1})
		if n.isLeaf() {
			ft.Nodes[idx].Dist = n.Dist
			return idx
		}
		ft.Nodes[idx].Feature = n.Feature
		ft.Nodes[idx].Threshold = n.Threshold
		l := walk(n.Left)
		r := walk(n.Right)
		ft.Nodes[idx].Left = l
		ft.Nodes[idx].Right = r
		return idx
	}
	walk(t.root)
	return ft
}

func (ft flatTree) unflatten() (*Tree, error) {
	if len(ft.Nodes) == 0 {
		return nil, fmt.Errorf("forest: empty tree")
	}
	nodes := make([]node, len(ft.Nodes))
	for i, fn := range ft.Nodes {
		nodes[i] = node{Feature: fn.Feature, Threshold: fn.Threshold, Dist: fn.Dist}
		if fn.Left < 0 && len(fn.Dist) != ft.Classes {
			return nil, fmt.Errorf("forest: leaf of %d classes in a tree of %d", len(fn.Dist), ft.Classes)
		}
		if fn.Left >= 0 {
			// flatten numbers nodes in preorder, so a child comes after
			// its parent; anything else could be a cycle.
			if fn.Left <= i || fn.Left >= len(nodes) || fn.Right <= i || fn.Right >= len(nodes) || fn.Feature < 0 {
				return nil, fmt.Errorf("forest: corrupt tree indices")
			}
			nodes[i].Left = &nodes[fn.Left]
			nodes[i].Right = &nodes[fn.Right]
		}
	}
	return &Tree{root: &nodes[0], classes: ft.Classes}, nil
}

// Wire is the gob form of an Extensible, for formats that embed it inline
// (core's bundle). It is an alias so that Save's stream keeps naming its
// type forestWire.
type Wire = forestWire

type forestWire struct {
	Trees   []flatTree
	Classes int
	Causes  int
}

func (wire forestWire) toForest() (*Forest, error) {
	f := &Forest{classes: wire.Classes}
	for _, ft := range wire.Trees {
		if ft.Classes != wire.Classes {
			return nil, fmt.Errorf("forest: tree of %d classes in a forest of %d", ft.Classes, wire.Classes)
		}
		t, err := ft.unflatten()
		if err != nil {
			return nil, err
		}
		f.trees = append(f.trees, t)
	}
	if len(f.trees) == 0 {
		return nil, fmt.Errorf("forest: no trees in stream")
	}
	return f, nil
}

// Save writes the extensible wrapper with gob.
func (e *Extensible) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(e.Wire())
}

// LoadExtensible reads an extensible wrapper written by Save.
func LoadExtensible(r io.Reader) (*Extensible, error) {
	var wire forestWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("forest: load extensible: %w", err)
	}
	return wire.Extensible()
}

// Wire returns e's gob form.
func (e *Extensible) Wire() Wire {
	wire := forestWire{Classes: e.forest.classes, Causes: e.causes}
	for _, t := range e.forest.trees {
		wire.Trees = append(wire.Trees, t.flatten())
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

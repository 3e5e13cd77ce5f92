package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"diagnet/internal/forest"
	"diagnet/internal/nn"
	"diagnet/internal/probe"
)

// modelWire is the gob format of a trained model (Save), and of every model
// of a version-1 bundle.
type modelWire struct {
	Cfg            Config
	TrainLandmarks []int
	FullLandmarks  []int
	Known          []int
	Norm           probe.Normalizer
	Net            []byte
	Aux            []byte
	ServiceID      int
}

// Save writes the complete model (network, normalizer, auxiliary forest,
// layouts) to w.
func (m *Model) Save(w io.Writer) error {
	var netBuf, auxBuf bytes.Buffer
	if err := m.Net.Save(&netBuf); err != nil {
		return fmt.Errorf("core: save net: %w", err)
	}
	if err := m.Aux.Save(&auxBuf); err != nil {
		return fmt.Errorf("core: save aux: %w", err)
	}
	wire := modelWire{
		Cfg:            m.Cfg,
		TrainLandmarks: m.TrainLayout.Landmarks,
		FullLandmarks:  m.FullLayout.Landmarks,
		Known:          sortedKnown(m.Known),
		Norm:           *m.Norm,
		Net:            netBuf.Bytes(),
		Aux:            auxBuf.Bytes(),
		ServiceID:      m.ServiceID,
	}
	return gob.NewEncoder(w).Encode(wire)
}

// sortedKnown lists the known regions in ascending order, so that saving a
// model twice gives the same bytes (map iteration order would not);
// decoding does not care about the order.
func sortedKnown(known map[int]bool) []int {
	var out []int
	for r := range known {
		out = append(out, r)
	}
	sort.Ints(out)
	return out
}

// Load reads a model written by Save.
func Load(r io.Reader) (*Model, error) {
	_, m, err := load(r, nil, nil)
	return m, err
}

// load decodes one saved model and also returns its wire form. like, when
// not nil, is an already loaded model and likeWire the wire it came from: a
// forest whose encoded bytes equal like's is not decoded a second time but
// shared with it (a version-1 bundle's specialized models all carry the
// general model's forest).
func load(r io.Reader, likeWire *modelWire, like *Model) (*modelWire, *Model, error) {
	var wire modelWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, nil, fmt.Errorf("core: load: %w", err)
	}
	net, err := nn.Load(bytes.NewReader(wire.Net))
	if err != nil {
		return nil, nil, fmt.Errorf("core: load net: %w", err)
	}
	var aux *forest.Extensible
	if like != nil && bytes.Equal(wire.Aux, likeWire.Aux) {
		aux = like.Aux
	} else if aux, err = forest.LoadExtensible(bytes.NewReader(wire.Aux)); err != nil {
		return nil, nil, fmt.Errorf("core: load aux: %w", err)
	}
	m, err := assemble(wire.Cfg, wire.TrainLandmarks, wire.FullLandmarks, wire.Known, wire.Norm, net, aux, wire.ServiceID)
	return &wire, m, err
}

// assemble builds a decoded model, after checking what the rest of the
// package takes for granted of it: the network starts with a LandPool over
// the probe's metrics and local features and ends with a Dense layer over
// the fault families (which puts a Dense above the LandPool, so trunkLayers
// has a trunk to find), and the forest scores every feature of the full
// layout and splits on none beyond it.
func assemble(cfg Config, train, full, known []int, norm probe.Normalizer, net *nn.Network, aux *forest.Extensible, serviceID int) (*Model, error) {
	if len(net.Layers) == 0 {
		return nil, fmt.Errorf("core: load: empty network")
	}
	if lp, ok := net.Layers[0].(*nn.LandPool); !ok || lp.K != int(probe.NumMetrics) || lp.NumLocal != probe.NumLocal {
		return nil, fmt.Errorf("core: load: the network does not start with a LandPool over %d metrics and %d local features", probe.NumMetrics, probe.NumLocal)
	}
	if d, ok := net.Layers[len(net.Layers)-1].(*nn.Dense); !ok || d.Out != int(probe.NumFamilies) {
		return nil, fmt.Errorf("core: load: the network does not end with a Dense layer over %d families", probe.NumFamilies)
	}
	m := &Model{
		Cfg:         cfg,
		TrainLayout: probe.NewLayout(train),
		Known:       make(map[int]bool, len(known)),
		Norm:        &norm,
		Net:         net,
		Aux:         aux,
		FullLayout:  probe.NewLayout(full),
		ServiceID:   serviceID,
	}
	if aux.Causes() != m.FullLayout.NumFeatures() {
		return nil, fmt.Errorf("core: load: the forest scores %d causes for %d full-layout features", aux.Causes(), m.FullLayout.NumFeatures())
	}
	if w := aux.Forest().Width(); w > m.FullLayout.NumFeatures() {
		return nil, fmt.Errorf("core: load: the forest splits on feature %d of %d full-layout features", w-1, m.FullLayout.NumFeatures())
	}
	for _, r := range known {
		m.Known[r] = true
	}
	return m, nil
}

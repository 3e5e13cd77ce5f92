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

// modelWire is the gob format of a trained model.
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
		Norm:           *m.Norm,
		Net:            netBuf.Bytes(),
		Aux:            auxBuf.Bytes(),
		ServiceID:      m.ServiceID,
	}
	// Sorted, so that saving a model twice gives the same bytes (map
	// iteration order would not); decoding does not care about the order.
	for r := range m.Known {
		wire.Known = append(wire.Known, r)
	}
	sort.Ints(wire.Known)
	return gob.NewEncoder(w).Encode(wire)
}

// Load reads a model written by Save.
func Load(r io.Reader) (*Model, error) {
	_, m, err := load(r, nil, nil)
	return m, err
}

// load decodes one saved model and also returns its wire form. like, when
// not nil, is an already loaded model and likeWire the wire it came from: a
// forest whose encoded bytes equal like's is not decoded a second time but
// shared with it (a bundle's specialized models all carry the general
// model's forest).
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
	known := make(map[int]bool, len(wire.Known))
	for _, r := range wire.Known {
		known[r] = true
	}
	norm := wire.Norm
	return &wire, &Model{
		Cfg:         wire.Cfg,
		TrainLayout: probe.NewLayout(wire.TrainLandmarks),
		Known:       known,
		Norm:        &norm,
		Net:         net,
		Aux:         aux,
		FullLayout:  probe.NewLayout(wire.FullLandmarks),
		ServiceID:   wire.ServiceID,
	}, nil
}

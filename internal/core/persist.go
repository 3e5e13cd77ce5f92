package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

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
	for r := range m.Known {
		wire.Known = append(wire.Known, r)
	}
	return gob.NewEncoder(w).Encode(wire)
}

// Load reads a model written by Save.
func Load(r io.Reader) (*Model, error) {
	var wire modelWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("core: load: %w", err)
	}
	net, err := nn.Load(bytes.NewReader(wire.Net))
	if err != nil {
		return nil, fmt.Errorf("core: load net: %w", err)
	}
	aux, err := forest.LoadExtensible(bytes.NewReader(wire.Aux))
	if err != nil {
		return nil, fmt.Errorf("core: load aux: %w", err)
	}
	known := make(map[int]bool, len(wire.Known))
	for _, r := range wire.Known {
		known[r] = true
	}
	norm := wire.Norm
	return &Model{
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

package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"sort"

	"diagnet/internal/dataset"
)

// Bundle packages a general model together with its per-service
// specialized variants, the unit diagnetd deploys.
type Bundle struct {
	General     *Model
	Specialized map[int]*Model
}

// NewBundle wraps a general model.
func NewBundle(general *Model) *Bundle {
	return &Bundle{General: general, Specialized: map[int]*Model{}}
}

// SpecializeAll derives one specialized model per service present in the
// training set (§IV-F) and returns the per-service training histories.
func (b *Bundle) SpecializeAll(train *dataset.Dataset, serviceIDs []int) map[int]*TrainResult {
	results := map[int]*TrainResult{}
	for _, id := range serviceIDs {
		if train.FilterService(id).Len() == 0 {
			continue
		}
		res := b.General.Specialize(train, id)
		b.Specialized[id] = res.Model
		results[id] = res
	}
	return results
}

// ModelFor returns the specialized model for a service, falling back to
// the general model.
func (b *Bundle) ModelFor(serviceID int) *Model {
	if m, ok := b.Specialized[serviceID]; ok {
		return m
	}
	return b.General
}

// bundleWire is the gob format of a bundle.
type bundleWire struct {
	General     []byte
	ServiceIDs  []int
	Specialized [][]byte
}

// Save writes the bundle to w.
func (b *Bundle) Save(w io.Writer) error {
	var wire bundleWire
	var buf bytes.Buffer
	if err := b.General.Save(&buf); err != nil {
		return fmt.Errorf("core: bundle general: %w", err)
	}
	wire.General = append([]byte(nil), buf.Bytes()...)

	ids := make([]int, 0, len(b.Specialized))
	for id := range b.Specialized {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		buf.Reset()
		if err := b.Specialized[id].Save(&buf); err != nil {
			return fmt.Errorf("core: bundle service %d: %w", id, err)
		}
		wire.ServiceIDs = append(wire.ServiceIDs, id)
		wire.Specialized = append(wire.Specialized, append([]byte(nil), buf.Bytes()...))
	}
	return gob.NewEncoder(w).Encode(wire)
}

// LoadBundle reads a bundle written by Save. Every specialized model
// enters through Attach, and a forest whose bytes equal the general
// model's is not even decoded, so a bundle written with thirteen copies of
// the trunk and the forest is loaded with one of each.
func LoadBundle(r io.Reader) (*Bundle, error) {
	var wire bundleWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("core: load bundle: %w", err)
	}
	gw, general, err := load(bytes.NewReader(wire.General), nil, nil)
	if err != nil {
		return nil, fmt.Errorf("core: load bundle general: %w", err)
	}
	b := NewBundle(general)
	for i, id := range wire.ServiceIDs {
		_, m, err := load(bytes.NewReader(wire.Specialized[i]), gw, general)
		if err != nil {
			return nil, fmt.Errorf("core: load bundle service %d: %w", id, err)
		}
		b.Attach(id, m)
	}
	return b, nil
}

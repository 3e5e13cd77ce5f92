package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"maps"
	"reflect"
	"slices"
	"sort"
	"strings"

	"diagnet/internal/dataset"
	"diagnet/internal/forest"
	"diagnet/internal/mat"
	"diagnet/internal/nn"
	"diagnet/internal/probe"
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

// bundleWire is the gob format of a bundle, the one model file (version
// 3): Base, the general model inline, and one entry per specialized
// service in strictly ascending order of service ID, every ID ≥ 0. A lone
// model is a bundle with no services. Every network parameter is one
// nn.Floats byte string. Nothing in it is a map or a nested gob stream, so
// its bytes are a function of the bundle.
type bundleWire struct {
	Base     modelForm
	Services []serviceForm
}

// modelForm is a complete model, inline.
type modelForm struct {
	Cfg            Config
	TrainLandmarks []int
	FullLandmarks  []int
	Known          []int
	Norm           probe.Normalizer
	Net            nn.Wire
	Aux            forest.Wire
	ServiceID      int
}

// serviceForm is one specialized model of a bundle: a head over
// the general model's trunk (headOnly) as the values and freeze flags of
// its head's parameters, any other model complete, in Model.
type serviceForm struct {
	ID     int
	Head   []nn.Floats
	Frozen []bool
	Model  *modelForm
}

// Save writes the bundle to w. Saving a bundle twice, or saving what
// LoadBundle made of its bytes, gives the same bytes. A specialized model
// under a negative service ID, which LoadBundle would refuse, is an error.
func (b *Bundle) Save(w io.Writer) error {
	g := b.General
	wire := bundleWire{Base: formOf(g)}
	ids := make([]int, 0, len(b.Specialized))
	for id := range b.Specialized {
		if id < 0 {
			return fmt.Errorf("core: save bundle: a specialized model for service %d; service IDs are ≥ 0", id)
		}
		ids = append(ids, id)
	}
	sort.Ints(ids)
	k := len(trunkParams(g.Net))
	for _, id := range ids {
		m := b.Specialized[id]
		e := serviceForm{ID: id}
		if headOnly(g, m, id) {
			for _, p := range m.Net.Params()[k:] {
				e.Head = append(e.Head, p.Value.Data)
				e.Frozen = append(e.Frozen, p.Frozen)
			}
		} else {
			f := formOf(m)
			e.Model = &f
		}
		wire.Services = append(wire.Services, e)
	}
	return gob.NewEncoder(w).Encode(&wire)
}

// formOf returns m's inline form.
func formOf(m *Model) modelForm {
	return modelForm{
		Cfg:            m.Cfg,
		TrainLandmarks: m.TrainLayout.Landmarks,
		FullLandmarks:  m.FullLayout.Landmarks,
		Known:          sortedKnown(m.Known),
		Norm:           *m.Norm,
		Net:            m.Net.Wire(),
		Aux:            m.Aux.Wire(),
		ServiceID:      m.ServiceID,
	}
}

// model builds the model f is the form of.
func (f *modelForm) model() (*Model, error) {
	net, err := f.Net.Network()
	if err != nil {
		return nil, err
	}
	aux, err := f.Aux.Extensible()
	if err != nil {
		return nil, err
	}
	return assemble(f.Cfg, f.TrainLandmarks, f.FullLandmarks, f.Known, f.Norm, net, aux, f.ServiceID)
}

// headOnly reports whether the bundle's model m for service id is a head
// over the general model g's trunk, which is all a bundle needs to store
// of it: m's trunk is g's (sameTrunk) and frozen, its layers are
// g's layers, and its forest and normalizer are g's (Attach makes them so)
// as are its configuration, layouts and known regions.
func headOnly(g, m *Model, id int) bool {
	if m.ServiceID != id || m.Aux != g.Aux || m.Norm != g.Norm || len(m.Net.Layers) != len(g.Net.Layers) ||
		!reflect.DeepEqual(m.Cfg, g.Cfg) || !maps.Equal(m.Known, g.Known) ||
		!slices.Equal(m.TrainLayout.Landmarks, g.TrainLayout.Landmarks) ||
		!slices.Equal(m.FullLayout.Landmarks, g.FullLayout.Landmarks) {
		return false
	}
	for i, l := range m.Net.Layers {
		if !reflect.DeepEqual(l.Spec(), g.Net.Layers[i].Spec()) {
			return false
		}
	}
	trunk := trunkParams(m.Net)
	for _, p := range trunk {
		if !p.Frozen {
			return false
		}
	}
	return sameTrunk(trunk, trunkParams(g.Net))
}

// overTrunk returns a network with g's layers whose trunk parameters alias
// g's matrices, frozen, and whose head parameters are matrices over head's
// values, with frozen's flags: head is fresh from the decoder, and the
// network owns it from then on.
func overTrunk(g *nn.Network, head []nn.Floats, frozen []bool) (*nn.Network, error) {
	net := g.View()
	ps := net.Params()
	k := len(trunkParams(net))
	if len(head) != len(ps)-k || len(frozen) != len(head) {
		return nil, fmt.Errorf("core: load: %d head params and %d freeze flags for a head of %d", len(head), len(frozen), len(ps)-k)
	}
	for _, p := range ps[:k] {
		p.Frozen = true
	}
	for i, p := range ps[k:] {
		v := head[i]
		if len(v) != len(p.Value.Data) {
			return nil, fmt.Errorf("core: load: head param %d has %d values, want %d", i, len(v), len(p.Value.Data))
		}
		p.Value = mat.FromSlice(p.Value.Rows, p.Value.Cols, v)
		p.Frozen = frozen[i]
	}
	return net, nil
}

// LoadBundle reads a bundle written by Save, and every specialized model
// enters it through Attach. A head is built directly over the general
// model's trunk (overTrunk): no second trunk or forest is decoded. Any
// other file is an error. One that does not decode has gob's error as the
// cause: a file of a retired format — a version-2 or version-1 bundle or
// a single-model file of an older build — says how to make a current
// one, and any other says it is damaged or truncated. A service list Save
// would not have written — out of ascending order, repeated, or below 0 —
// is an error naming the entry.
func LoadBundle(r io.Reader) (*Bundle, error) {
	var wire bundleWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		if retiredFormat(err) {
			return nil, fmt.Errorf("core: load bundle: not a version-3 bundle; a version-2 or version-1 bundle or a single-model file of an older build is no longer read: "+
				"train it again with diagnet train (-out for the general model, -bundle for per-service heads): %w", err)
		}
		return nil, fmt.Errorf("core: load bundle: a damaged or truncated version-3 bundle: %w", err)
	}
	for i, e := range wire.Services {
		if e.ID < 0 || i > 0 && e.ID <= wire.Services[i-1].ID {
			return nil, fmt.Errorf("core: load bundle: service entry %d is service %d; Save writes services in strictly ascending order of ID, from 0", i, e.ID)
		}
	}
	general, err := wire.Base.model()
	if err != nil {
		return nil, fmt.Errorf("core: load bundle general: %w", err)
	}
	b := NewBundle(general)
	for _, e := range wire.Services {
		var m *Model
		if e.Model != nil {
			m, err = e.Model.model()
		} else {
			var net *nn.Network
			net, err = overTrunk(general.Net, e.Head, e.Frozen)
			m = general.derive(net, e.ID)
		}
		if err != nil {
			return nil, fmt.Errorf("core: load bundle service %d: %w", e.ID, err)
		}
		b.Attach(e.ID, m)
	}
	return b, nil
}

// retiredFormat reports whether err is how gob refuses a file of a retired
// format: a single-model file or a version-1 bundle shares no field with
// bundleWire, and a version-2 bundle holds each parameter as the
// []float64 that version 3 decodes into nn.Floats.
func retiredFormat(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "type mismatch") && strings.Contains(msg, "bundleWire") ||
		strings.Contains(msg, "wrong type ([]nn.Floats)")
}

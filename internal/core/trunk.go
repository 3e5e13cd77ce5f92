package core

import (
	"reflect"

	"diagnet/internal/nn"
)

// A DiagNet network is a trunk and a head (§IV-F). The trunk is the
// LandPooling layer, the first fully connected layer and the
// parameter-free layers that follow it (its activation, its Dropout when
// configured): the global feature extractor that every service shares. The
// head is the rest: the final layers a service specializes. A network with
// a single Dense layer keeps that layer as its head.
//
// Specialize and Retrain(HeadOnly) build a Model.Net whose trunk
// parameters alias the source network's value matrices — frozen, never
// written by training (nn.Param) — and own only the head, and LoadBundle
// builds each stored head over the general model's trunk (overTrunk).
// Model.Net stays a complete network either way, so persistence, Clone and
// ParamCount see no difference.
//
// The invariant, enforced by identity and not by convention: a head only
// ever consumes activations of the trunk its own Model.Net aliases. A
// Session groups the rows of a pass by trunk identity (sameTrunk), so a
// model whose trunk is private or has diverged is simply passed on its own.

// trunkLayers returns how many leading layers of net form the trunk.
func trunkLayers(net *nn.Network) int {
	if _, ok := net.Layers[0].(*nn.LandPool); !ok {
		panic("core: network does not start with a LandPool layer")
	}
	first := 0
	for i, l := range net.Layers {
		if _, ok := l.(*nn.Dense); !ok {
			continue
		}
		if first > 0 {
			return i
		}
		first = i
	}
	return first
}

// trunkParams returns the parameters of net's trunk layers.
func trunkParams(net *nn.Network) []*nn.Param {
	return nn.NewNetwork(net.Layers[:trunkLayers(net)]...).Params()
}

// headOver returns a network that shares src's trunk and owns a copy of its
// head: the trunk parameters alias src's value matrices and are frozen, the
// head parameters are deep copies that keep src's freeze flags.
func headOver(src *nn.Network) *nn.Network {
	net := src.View()
	k := trunkLayers(net)
	for i, l := range net.Layers {
		for _, p := range l.Params() {
			if i < k {
				p.Frozen = true
			} else {
				p.Value = p.Value.Clone()
			}
		}
	}
	return net
}

// sameTrunk reports whether two trunks are one: every parameter reads the
// same value matrix.
func sameTrunk(a, b []*nn.Param) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Value != b[i].Value {
			return false
		}
	}
	return true
}

// Attach installs m as the bundle's model for a service and returns the
// model the bundle now holds. It is how a decoded file (LoadBundle) or a
// model trained elsewhere enters a bundle, and it makes the bundle hold
// the general model's forest and normalizer once: an equal forest or
// normalizer is replaced by the general's (a service Save wrote complete,
// for its diverged trunk, carries the general's forest). Whatever differs
// stays private, so a foreign or diverged model is served as it is (in its
// own trunk pass). m itself is never modified: when anything is shared the
// bundle holds a new Model that shares m's network.
func (b *Bundle) Attach(serviceID int, m *Model) *Model {
	g := b.General
	aux, norm := m.Aux, m.Norm
	if aux != g.Aux && reflect.DeepEqual(aux, g.Aux) {
		aux = g.Aux
	}
	if norm != g.Norm && reflect.DeepEqual(norm, g.Norm) {
		norm = g.Norm
	}
	if aux != m.Aux || norm != m.Norm {
		m = m.derive(m.Net, m.ServiceID)
		m.Aux, m.Norm = aux, norm
	}
	b.Specialized[serviceID] = m
	return m
}

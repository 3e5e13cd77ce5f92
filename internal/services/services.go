// Package services models the paper's mock-up online services (Table II):
// six archetypes ranging from a dependency-free static page to pages
// pulling a 5 MB image from a distant region or the nearest CDN point of
// presence. The catalog instantiates the archetypes across the three
// service-hosting regions (GRAV, SEAT, SING), giving the 8 services the
// general DiagNet model trains on (§IV-F) plus extra services reserved for
// specialization experiments.
package services

import (
	"fmt"

	"diagnet/internal/netsim"
)

// Kind enumerates the Table II service archetypes.
type Kind int

const (
	// Single is a static HTML page with no dependency.
	Single Kind = iota
	// ScriptFar requires a JS file hosted in BEAU.
	ScriptFar
	// ScriptCDN requires a JS file from the region nearest to the client.
	ScriptCDN
	// ImageLocal loads a 5 MB image from the same server over the same
	// HTTP connection.
	ImageLocal
	// ImageFar loads a 5 MB image from BEAU.
	ImageFar
	// ImageCDN loads a 5 MB image from the region nearest to the client.
	ImageCDN
	NumKinds
)

var kindNames = [NumKinds]string{
	"single", "script.far", "script.cdn", "image.local", "image.far", "image.cdn",
}

// String returns the archetype's Table II name.
func (k Kind) String() string {
	if k < 0 || k >= NumKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// Resource sizes.
const (
	htmlBytes   = 60 << 10  // base page
	scriptBytes = 300 << 10 // JS dependency
	imageBytes  = 5 << 20   // 5 MB image (Table II)
)

// Service is one deployed mock-up service.
type Service struct {
	ID   int
	Kind Kind
	Host int // region hosting the HTML entry point
}

// Name renders e.g. "image.far@GRAV".
func (s Service) Name() string {
	return fmt.Sprintf("%s@%s", s.Kind, netsim.DefaultRegions()[s.Host].Name)
}

// Resource is one HTTP fetch performed when loading a service.
type Resource struct {
	Host      int
	Bytes     int
	ReuseConn bool // fetched over an already-open connection
}

// Resources returns the fetch sequence a client in region `client`
// performs: the HTML entry point first, then the archetype's dependency.
// nearest maps a client region to its closest CDN region.
func (s Service) Resources(client int, nearest func(int) int) []Resource {
	res := []Resource{{Host: s.Host, Bytes: htmlBytes}}
	switch s.Kind {
	case Single:
	case ScriptFar:
		res = append(res, Resource{Host: netsim.BEAU, Bytes: scriptBytes})
	case ScriptCDN:
		res = append(res, Resource{Host: nearest(client), Bytes: scriptBytes})
	case ImageLocal:
		res = append(res, Resource{Host: s.Host, Bytes: imageBytes, ReuseConn: true})
	case ImageFar:
		res = append(res, Resource{Host: netsim.BEAU, Bytes: imageBytes})
	case ImageCDN:
		res = append(res, Resource{Host: nearest(client), Bytes: imageBytes})
	default:
		panic("services: unknown kind")
	}
	return res
}

// Catalog returns the twelve deployed services: the six archetypes spread
// over the three service regions (§IV-A-a), two instantiations each. The
// second group's host rotation is offset so that BEAU-dependent archetypes
// also appear hosted in GRAV (script.far@GRAV, image.far@GRAV), giving the
// simultaneous-fault experiment (Fig. 10) services for which *both* the
// BEAU and the GRAV latency fault are relevant.
func Catalog() []Service {
	hosts := []int{netsim.GRAV, netsim.SEAT, netsim.SING}
	var svcs []Service
	id := 0
	for i := 0; i < 2; i++ {
		for k := Kind(0); k < NumKinds; k++ {
			svcs = append(svcs, Service{ID: id, Kind: k, Host: hosts[(id+2*i)%len(hosts)]})
			id++
		}
	}
	return svcs
}

// TrainingSet returns the eight services the general model trains on
// (§IV-F: "a general model on a subset of eight initial services").
func TrainingSet() []Service { return Catalog()[:8] }

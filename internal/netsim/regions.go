// Package netsim simulates the paper's geodistributed multi-cloud testbed:
// ten regions across four providers, links with latency/jitter/loss/
// bandwidth derived from geodesic distance and peering relationships,
// diurnal congestion, and tc-netem-style fault injection (§IV-A).
//
// The simulator is the substitution for the authors' AWS/Azure/GCP/OVH
// deployment (see DESIGN.md §2): it preserves the causal structure the
// learning problem depends on — a fault injected in region R perturbs
// exactly the metrics of flows whose endpoints sit in R, client-side faults
// perturb everything a client sees plus its local metrics, and nothing
// else.
package netsim

import "math"

// Region is one cloud region hosting a landmark, clients, and possibly
// service resources.
type Region struct {
	Name     string
	Provider string
	Lat, Lon float64 // degrees
}

// Region indices of the default world. The first six names follow the
// paper (Fig. 4); the remaining four stand in for the paper's unreadable
// region labels (documented in DESIGN.md §3).
const (
	SEAT = iota
	EAST
	BEAU
	GRAV
	AMST
	SING
	LOND
	FRNK
	TOKY
	SYDN
	NumRegions
)

// DefaultRegions returns the ten-region, four-provider deployment used in
// all experiments.
func DefaultRegions() []Region {
	return []Region{
		SEAT: {Name: "SEAT", Provider: "aws", Lat: 47.61, Lon: -122.33},
		EAST: {Name: "EAST", Provider: "azure", Lat: 39.04, Lon: -77.49},
		BEAU: {Name: "BEAU", Provider: "ovh", Lat: 45.31, Lon: -73.87},
		GRAV: {Name: "GRAV", Provider: "ovh", Lat: 50.99, Lon: 2.13},
		AMST: {Name: "AMST", Provider: "gcp", Lat: 52.37, Lon: 4.90},
		SING: {Name: "SING", Provider: "gcp", Lat: 1.35, Lon: 103.82},
		LOND: {Name: "LOND", Provider: "azure", Lat: 51.51, Lon: -0.13},
		FRNK: {Name: "FRNK", Provider: "aws", Lat: 50.11, Lon: 8.68},
		TOKY: {Name: "TOKY", Provider: "aws", Lat: 35.68, Lon: 139.69},
		SYDN: {Name: "SYDN", Provider: "azure", Lat: -33.87, Lon: 151.21},
	}
}

// HiddenLandmarks returns the landmark regions hidden during training in
// every paper experiment (§IV-A-d): EAST, GRAV and SEAT.
func HiddenLandmarks() []int { return []int{EAST, GRAV, SEAT} }

// FaultRegions returns the regions the paper injects faults into
// (§IV-A-e): the regions involving services — SEAT, BEAU, GRAV, AMST, SING.
func FaultRegions() []int { return []int{SEAT, BEAU, GRAV, AMST, SING} }

// earthRadiusKm is the mean Earth radius.
const earthRadiusKm = 6371.0

// haversineKm returns the great-circle distance between two regions.
func haversineKm(a, b Region) float64 {
	const rad = math.Pi / 180
	la1, lo1 := a.Lat*rad, a.Lon*rad
	la2, lo2 := b.Lat*rad, b.Lon*rad
	dla, dlo := la2-la1, lo2-lo1
	h := math.Sin(dla/2)*math.Sin(dla/2) +
		math.Cos(la1)*math.Cos(la2)*math.Sin(dlo/2)*math.Sin(dlo/2)
	return 2 * earthRadiusKm * math.Asin(math.Min(1, math.Sqrt(h)))
}

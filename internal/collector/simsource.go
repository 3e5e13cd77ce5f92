package collector

import (
	"context"

	"diagnet/internal/netsim"
	"diagnet/internal/probe"
	"diagnet/internal/qoe"
	"diagnet/internal/services"
	"diagnet/internal/stats"
)

// SimSource adapts the simulator as a measurement source for one client
// watching one service. Faults can be scheduled per tick.
type SimSource struct {
	World   *netsim.World
	Client  int
	Service services.Service
	Layout  probe.Layout
	// FaultsAt returns the faults active at a tick (nil for none).
	FaultsAt func(tick int64) []netsim.Fault
	Seed     int64

	q *qoe.Model
}

// NewSimSource builds a source; faultsAt may be nil (never any fault).
func NewSimSource(w *netsim.World, client int, svc services.Service, layout probe.Layout, faultsAt func(int64) []netsim.Fault, seed int64) *SimSource {
	return &SimSource{
		World: w, Client: client, Service: svc, Layout: layout,
		FaultsAt: faultsAt, Seed: seed, q: qoe.New(w),
	}
}

func (s *SimSource) env(tick int64) netsim.Env {
	e := netsim.Env{Tick: tick}
	if s.FaultsAt != nil {
		e.Faults = s.FaultsAt(tick)
	}
	return e
}

// Round implements Source: the probed features and a noisy page load,
// both drawn from the tick's seeded stream.
func (s *SimSource) Round(_ context.Context, tick int64) (Round, error) {
	env := s.env(tick)
	rng := stats.NewRand(s.Seed, tick)
	features := probe.Prober{W: s.World}.Sample(s.Client, s.Layout, env, rng)
	return Round{
		Landmarks: s.Layout.Landmarks,
		Features:  features,
		LoadMs:    s.q.LoadTime(s.Client, s.Service, env, rng),
	}, nil
}

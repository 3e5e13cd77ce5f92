package cluster

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"diagnet/internal/obs"
)

// ObsConfig configures the router's fleet observability plane (DESIGN.md
// §16): metric federation over the replica pool, SLO burn-rate alerting
// over the federated view. The zero value disables all of it — the router
// then serves only its own process metrics.
type ObsConfig struct {
	// FederateInterval is the replica scrape period. Zero disables
	// federation, and with it the SLO engine (which consumes the
	// federated view).
	FederateInterval time.Duration
	// SLOTarget is the availability/latency objective (e.g. 0.999). Zero
	// disables the SLO engine.
	SLOTarget float64
	// SLOLatencyMs is the latency objective's good/bad threshold over
	// /v1/diagnose; it should be one of the latency histogram's bucket
	// bounds for an exact split. Zero keeps only the availability
	// objective.
	SLOLatencyMs float64
	// BurnRules overrides the default fast(5m/1h, page)/slow(6h/3d, warn)
	// multi-window rules — tests shrink the windows to seconds.
	BurnRules []obs.BurnRule
}

// routerObs is the router's observability plane: the federator (always
// present when enabled), plus the optional SLO engine.
type routerObs struct {
	cfg ObsConfig
	fed *obs.Federator
	slo *obs.SLOEngine

	stopLoop func() // ends the federation loop and awaits it
}

// newRouterObs wires the observability plane over the pool; returns nil
// when federation is disabled.
func newRouterObs(pool *Pool, cfg ObsConfig) *routerObs {
	if cfg.FederateInterval <= 0 {
		return nil
	}
	ro := &routerObs{cfg: cfg}
	ro.fed = obs.NewFederator(obs.FederatorConfig{
		Targets: func() []string {
			reps := pool.Replicas()
			urls := make([]string, len(reps))
			for i, r := range reps {
				urls[i] = r.Name()
			}
			return urls
		},
		Timeout: cfg.FederateInterval * 4,
	})
	if cfg.SLOTarget > 0 {
		objectives := obs.DefaultObjectives(cfg.SLOTarget, cfg.SLOLatencyMs)
		if cfg.SLOLatencyMs <= 0 {
			objectives = objectives[:1] // availability only
		}
		ro.slo = obs.NewSLOEngine(obs.SLOConfig{
			Objectives: objectives,
			Rules:      cfg.BurnRules,
			OnTransition: func(ev obs.AlertEvent) {
				if ev.Firing {
					slog.Warn("cluster: SLO alert firing",
						"objective", ev.Objective, "rule", ev.Rule,
						"severity", ev.Severity, "burn", ev.Burn)
				} else {
					slog.Info("cluster: SLO alert cleared",
						"objective", ev.Objective, "rule", ev.Rule)
				}
			},
		})
	}
	ro.stopLoop = every(cfg.FederateInterval, ro.sweep)
	return ro
}

// sweep is one turn of the federation loop: scrape, feed the SLO engine.
func (ro *routerObs) sweep() {
	ctx, cancel := context.WithTimeout(context.Background(), ro.cfg.FederateInterval*8)
	view := ro.fed.Sweep(ctx)
	cancel()
	if ro.slo != nil {
		ro.slo.Observe(time.Now(), &view.Fleet)
	}
}

// close stops the federation loop and releases the plane's resources, in
// dependency order: loop first (nothing sweeps anymore), then the
// federator's idle scrape connections. Idempotent — Router.Close may run
// more than once.
func (ro *routerObs) close() {
	ro.stopLoop()
	ro.fed.Close()
}

// handleFleetMetrics serves GET /v1/fleet/metrics (404 when federation is
// off).
func (rt *Router) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	if rt.obs == nil {
		http.Error(w, "federation disabled (set -federate-interval)", http.StatusNotFound)
		return
	}
	rt.obs.fed.ServeView(w, r)
}

// handleSLO serves GET /v1/slo (404 when the SLO engine is off).
func (rt *Router) handleSLO(w http.ResponseWriter, r *http.Request) {
	if rt.obs == nil || rt.obs.slo == nil {
		http.Error(w, "SLO engine disabled (set -slo-target)", http.StatusNotFound)
		return
	}
	rt.obs.slo.ServeStatus(w, r)
}

// Federator exposes the federation plane (nil when disabled) — tests and
// diagnet top use it in-process.
func (rt *Router) Federator() *obs.Federator {
	if rt.obs == nil {
		return nil
	}
	return rt.obs.fed
}

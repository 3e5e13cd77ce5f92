package cluster

import (
	"context"
	"log/slog"
	"net/http"
	"time"

	"diagnet/internal/obs"
	"diagnet/internal/telemetry"
)

// ObsConfig configures the router's fleet observability plane (DESIGN.md
// §16): metric federation over the replica pool, SLO burn-rate alerting
// over the federated view, and anomaly-triggered profile capture. The
// zero value disables all of it — the router then serves only its own
// process metrics.
type ObsConfig struct {
	// FederateInterval is the replica scrape period. Zero disables
	// federation, and with it the SLO engine and fleet-triggered
	// profiling (both consume the federated view).
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
	// ProfileDir enables anomaly-triggered profiling: captures land in an
	// on-disk ring under this directory (e.g. <state-dir>/profiles).
	ProfileDir string
	// ProfileOnBreachMs additionally triggers a capture when the fleet's
	// windowed p99 over /v1/diagnose exceeds this bound. Zero disables
	// the p99 trigger (burn-rate firings still trigger).
	ProfileOnBreachMs float64
	// ProfileCooldown rate-limits captures (default 10m).
	ProfileCooldown time.Duration
	// ProfileCPUDuration bounds one CPU profile (default 5s).
	ProfileCPUDuration time.Duration
}

// routerObs is the router's observability plane: the federator (always
// present when enabled), plus the optional SLO engine and profiler.
type routerObs struct {
	cfg      ObsConfig
	fed      *obs.Federator
	slo      *obs.SLOEngine
	profiler *obs.Profiler

	// prevLat anchors the windowed fleet p99: the breach check runs on the
	// delta distribution since the previous sweep, not the lifetime one.
	prevLat *telemetry.HistogramPoint

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
	if cfg.ProfileDir != "" {
		p, err := obs.OpenProfiler(obs.ProfilerConfig{
			Dir:         cfg.ProfileDir,
			Cooldown:    cfg.ProfileCooldown,
			CPUDuration: cfg.ProfileCPUDuration,
		})
		if err != nil {
			slog.Warn("cluster: anomaly profiling disabled", "err", err)
		} else {
			ro.profiler = p
		}
	}
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
					if ro.profiler != nil {
						ro.profiler.Trigger("slo-" + ev.Objective + "-" + ev.Rule)
					}
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

// sweep is one turn of the federation loop: scrape, feed the SLO engine,
// check the windowed fleet p99.
func (ro *routerObs) sweep() {
	ctx, cancel := context.WithTimeout(context.Background(), ro.cfg.FederateInterval*8)
	view := ro.fed.Sweep(ctx)
	cancel()
	if ro.slo != nil {
		ro.slo.Observe(time.Now(), &view.Fleet)
	}
	ro.checkBreach(&view.Fleet)
}

// checkBreach triggers a profile capture when the windowed fleet p99 over
// /v1/diagnose exceeds the configured bound.
func (ro *routerObs) checkBreach(fleet *telemetry.Export) {
	if ro.profiler == nil || ro.cfg.ProfileOnBreachMs <= 0 {
		return
	}
	cur, ok := fleet.Histogram(obs.DiagnoseRoute.Latency)
	if !ok {
		return
	}
	p99, breached := obs.Breach(cur, ro.prevLat, ro.cfg.ProfileOnBreachMs)
	ro.prevLat = cur
	if breached {
		slog.Warn("cluster: fleet p99 breach", "p99_ms", p99, "bound_ms", ro.cfg.ProfileOnBreachMs)
		ro.profiler.Trigger("fleet-p99-breach")
	}
}

// close stops the federation loop and releases the plane's resources, in
// dependency order: loop first (nothing sweeps anymore), then the
// profiler (awaits an in-flight capture), then the federator's idle
// scrape connections. Idempotent — Router.Close may run more than once.
func (ro *routerObs) close() {
	ro.stopLoop()
	if ro.profiler != nil {
		ro.profiler.Close()
	}
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

// handleProfiles serves GET /v1/profiles (404 when profiling is off).
func (rt *Router) handleProfiles(w http.ResponseWriter, r *http.Request) {
	if rt.obs == nil || rt.obs.profiler == nil {
		http.Error(w, "profiling disabled (set -state-dir)", http.StatusNotFound)
		return
	}
	rt.obs.profiler.ServeHTTP(w, r)
}

// Federator exposes the federation plane (nil when disabled) — tests and
// diagnet-top use it in-process.
func (rt *Router) Federator() *obs.Federator {
	if rt.obs == nil {
		return nil
	}
	return rt.obs.fed
}

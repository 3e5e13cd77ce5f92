// Package obs is DiagNet's fleet observability plane (DESIGN.md §16),
// layered on the internal/telemetry registry. There is one metric model,
// telemetry.Export, under one name space, the dotted registry names, and
// one wire format, JSON; this package serves it, moves it between
// processes and consumes it:
//
//   - One rendering. Every daemon serves its registry's Export as JSON at
//     GET /v1/metrics (MetricsHandler): counters, gauges (NaN and ±Inf
//     included), and fixed-bucket histograms with their full cumulative
//     bucket state, sum and tail exemplar.
//
//   - Metric federation. The router fetches each replica's /v1/metrics on
//     a timer, validates the decoded Export (DecodeExport), and merges the
//     fleet exactly: counters and cumulative buckets sum element-wise
//     (exact because every histogram of a given name shares fixed bounds),
//     gauges sum or average by name. GET /v1/fleet/metrics serves the
//     merged view with a per-replica breakdown, under the names the
//     replicas' own registries use.
//
//   - SLO engine. Declarative objectives (availability and a latency
//     threshold over /v1/diagnose) evaluated with multi-window burn-rate
//     rules — fast 5m/1h page, slow 6h/3d warn — over sliding windows of
//     the federated counters. GET /v1/slo exposes the alert state machine
//     and the remaining error budget.
//
// The paper's premise is diagnosing other services at Internet scale;
// this package applies the same discipline to the diagnoser itself — the
// continuously collected, aggregated telemetry substrate that online RCA
// systems (NetRCA, online multi-modal RCA) presuppose.
package obs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"diagnet/internal/telemetry"
	"diagnet/internal/tracing"
)

// MetricsHandler serves GET /v1/metrics: the registry's Export as one
// JSON document, whatever the request's Accept header says. Like every
// handler in this package it leaves the method check to the mux: mount it
// under a "GET " pattern.
func MetricsHandler(reg *telemetry.Registry) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, reg.Export())
	}
}

// RouteNames are the registry names Instrument records one HTTP route
// under. Everything that reads a route's metrics — the SLO objectives,
// diagnet-top — takes the names from here, so the scheme is spelled once.
type RouteNames struct {
	Requests string // counter
	Errors   string // counter: status ≥ 400 or panic
	Latency  string // histogram, milliseconds
}

// RouteMetrics names the metrics of route <prefix>.<route>, the stage its
// latency and span are recorded under.
func RouteMetrics(prefix, route string) RouteNames {
	name := prefix + "." + route
	return RouteNames{name + ".requests", name + ".errors", tracing.LatencyName(name)}
}

// DiagnoseRoute is the replicas' POST /v1/diagnose — the route the fleet's
// objectives and dashboard are about.
var DiagnoseRoute = RouteMetrics("http", "diagnose")

// Instrument is the one per-route HTTP front of every daemon: it counts
// the route's requests and errors (status ≥ 400 or panic) under the
// RouteMetrics names, tracks the <prefix>.inflight gauge, and times the
// route as the stage "<prefix>.<route>" — all in the GIVEN registry, so
// several replicas in one process (soak, tests, the observability example)
// each keep their own. The stage's span is the request's: an incoming W3C
// traceparent continues the caller's trace, otherwise the route starts a
// fresh local root. The response echoes the trace ID in X-Trace-Id so a
// client can fetch its own trace from /v1/traces/{id}, and the latency
// histogram captures the trace ID as its tail exemplar. A panic still
// propagates to the server's recoverer; the deferred block keeps gauge,
// counters and span consistent on that path too.
func Instrument(reg *telemetry.Registry, prefix, route string, next http.HandlerFunc) http.HandlerFunc {
	names, stage := RouteMetrics(prefix, route), tracing.NewStage(reg, prefix+"."+route)
	requests := reg.Counter(names.Requests)
	failed := reg.Counter(names.Errors)
	inflight := reg.Gauge(prefix + ".inflight")
	return func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		inflight.Add(1)
		ctx, clock := stage.Root(tracing.Extract(r.Context(), r.Header))
		span := clock.Span()
		span.SetAttr("http.method", r.Method)
		span.SetAttr("http.path", r.URL.Path)
		if id := span.TraceID(); id != "" {
			w.Header().Set("X-Trace-Id", id)
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		finished := false
		defer func() {
			inflight.Add(-1)
			if !finished || rec.status >= 400 {
				failed.Inc()
			}
			span.SetAttr("http.status", rec.status)
			switch {
			case !finished:
				span.SetError(fmt.Errorf("panic serving %s", r.URL.Path))
			case rec.status >= 500:
				span.SetError(fmt.Errorf("http %d", rec.status))
			}
			clock.End()
		}()
		next(rec, r.WithContext(ctx))
		finished = true
	}
}

// statusRecorder captures the response status for error counting.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// WriteJSON writes v as a JSON response. A value that does not encode
// leaves the client a 200 with a cut-off body, so the error is logged: a
// blank document must not be silent.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		slog.Warn("obs: JSON response not written", "type", fmt.Sprintf("%T", v), "err", err)
	}
}

// ListenAndServe is how diagnetd and diagnet-router serve: h on addr with
// the timeouts both daemons configure, until SIGINT/SIGTERM (or ctx is
// done); then it stops accepting, gives in-flight requests 15 s to finish
// and returns once the listener has — nil after a clean drain. The caller
// closes what h uses afterwards, so nothing is torn down under a request.
func ListenAndServe(ctx context.Context, addr string, h http.Handler) error {
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	slog.Info("shutting down: draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		slog.Warn("forced shutdown", "err", err)
	}
	if err := <-errCh; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}

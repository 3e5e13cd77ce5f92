// Package obs is DiagNet's fleet observability plane (DESIGN.md §16),
// layered on the internal/telemetry registry:
//
//   - Prometheus text exposition. Every daemon serves GET /metrics in the
//     OpenMetrics text format — counters (_total), gauges, and fixed-bucket
//     histograms with cumulative _bucket series, _sum/_count and the
//     registry's tail exemplars annotated on their bucket line. Zero
//     dependencies: the writer and its strict parser live here.
//
//   - Metric federation. The router scrapes each replica's /metrics on a
//     timer, decodes it with the same strict parser, and merges the fleet
//     exactly: counters and cumulative buckets sum element-wise (exact
//     because every histogram of a given name shares fixed bounds), gauges
//     aggregate under a name-based policy. GET /v1/fleet/metrics serves
//     the merged view with a per-replica breakdown.
//
//   - SLO engine. Declarative objectives (availability and a latency
//     threshold over /v1/diagnose) evaluated with multi-window burn-rate
//     rules — fast 5m/1h page, slow 6h/3d warn — over sliding windows of
//     the federated counters. GET /v1/slo exposes the alert state machine
//     and the remaining error budget.
//
//   - Anomaly-triggered profiling. When a burn-rate rule fires, or the
//     fleet p99 breaches a configured bound, a bounded CPU+heap pprof pair
//     is captured into a small on-disk ring, rate-limited so a sustained
//     incident costs at most one capture per cooldown. GET /v1/profiles
//     lists and serves the captures.
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
	"strings"
	"syscall"
	"time"

	"diagnet/internal/telemetry"
	"diagnet/internal/tracing"
)

// PromName maps a dotted registry name to a Prometheus metric family
// name: every character outside [a-zA-Z0-9_:] becomes '_', and a leading
// digit is prefixed. Idempotent, so parsed-and-re-exposed names are
// stable across federation hops.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// wantsExposition reports whether the request's Accept header prefers the
// Prometheus/OpenMetrics text format over the legacy JSON snapshot. The
// JSON shape stays the default (and byte-compatible) so existing tooling
// keeps working without sending a header.
func wantsExposition(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "openmetrics") ||
		strings.Contains(accept, "text/plain")
}

// serveExposition writes the registry's current state in the exposition
// text format.
func serveExposition(w http.ResponseWriter, reg *telemetry.Registry) {
	w.Header().Set("Content-Type", ContentType)
	ex := reg.Export()
	_ = WriteExposition(w, &ex)
}

// ExpositionHandler serves GET /metrics from the given registry, counting
// scrapes (into the same registry) so the observability plane observes
// itself. Like every handler in this package it leaves the method check to
// the mux: mount it under a "GET " pattern.
func ExpositionHandler(reg *telemetry.Registry) http.Handler {
	scrapes := reg.Counter("obs.scrapes")
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		scrapes.Inc()
		serveExposition(w, reg)
	})
}

// Instrument is the one per-route HTTP front of every daemon: it counts
// <prefix>.<route>.requests and .errors (status ≥ 400 or panic), times
// <prefix>.<route>.latency_ms, tracks the <prefix>.inflight gauge — all in
// the GIVEN registry, so several replicas in one process (soak, tests, the
// observability example) each keep their own — and opens the route's
// trace span "<prefix>.<route>": an incoming W3C traceparent continues the
// caller's trace, otherwise the route starts a fresh local root. The
// response echoes the trace ID in X-Trace-Id so a client can fetch its
// own trace from /v1/traces/{id}, and the latency histogram captures the
// trace ID as its tail exemplar. A panic still propagates to the server's
// recoverer; the deferred block keeps gauge, counters and span consistent
// on that path too.
func Instrument(reg *telemetry.Registry, prefix, route string, next http.HandlerFunc) http.HandlerFunc {
	name := prefix + "." + route
	requests := reg.Counter(name + ".requests")
	failed := reg.Counter(name + ".errors")
	latency := reg.Histogram(name+".latency_ms", nil)
	inflight := reg.Gauge(prefix + ".inflight")
	return func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		inflight.Add(1)
		clock := telemetry.StartStages()
		ctx := tracing.Extract(r.Context(), r.Header)
		ctx, span := tracing.StartSpan(ctx, name)
		span.SetAttr("http.method", r.Method)
		span.SetAttr("http.path", r.URL.Path)
		if id := span.TraceID(); id != "" {
			w.Header().Set("X-Trace-Id", id)
		}
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		finished := false
		defer func() {
			inflight.Add(-1)
			clock.DoneExemplar(latency, span.TraceID())
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
			span.End()
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

// ServeMetrics serves GET /v1/metrics on every daemon: the process-wide
// telemetry snapshot as one JSON document (byte-compatible for
// diagnet-top and older tooling), or the exposition text when the Accept
// header asks for it — same data, scrape-standard shape.
func ServeMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsExposition(r) {
		serveExposition(w, telemetry.Default())
		return
	}
	WriteJSON(w, telemetry.Default().Snapshot())
}

// WriteJSON writes v as a JSON response.
func WriteJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
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

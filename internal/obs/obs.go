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
	"io"
	"log/slog"
	"math/bits"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"sync"
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
// diagnet top — takes the names from here, so the scheme is spelled once.
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
// several replicas in one process (soak, tests)
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

// Wire buffers. Each request, chunk and reply body on the diagnose path
// lives for one request, so both tiers take them from one pool of
// power-of-two size classes and hand each back (Recycle) once nothing can
// still read it (DESIGN.md §11). A class holds buffers of exactly its size;
// a body past the largest class is allocated and left to the GC, which
// bounds what the pool retains.
const (
	minBufferClass = 9  // 512 B
	maxBufferClass = 20 // 1 MiB
)

var buffers [maxBufferClass - minBufferClass + 1]sync.Pool

// Buffer returns an empty buffer with room for n bytes, from the pool when
// n fits a size class.
func Buffer(n int) []byte {
	c := minBufferClass
	if n > 1<<minBufferClass {
		c = bits.Len(uint(n - 1))
	}
	if c > maxBufferClass {
		return make([]byte, 0, n)
	}
	if b, ok := buffers[c-minBufferClass].Get().(*[]byte); ok {
		return *b
	}
	return make([]byte, 0, 1<<c)
}

// Recycle hands b, a buffer from Buffer or ReadBody, back to the pool. The
// caller must hold the last reference to it: nothing may read or write b
// afterwards. A buffer of no class (nil among them) is left to the GC.
func Recycle(b []byte) {
	c := bits.Len(uint(cap(b))) - 1
	if c < minBufferClass || c > maxBufferClass || cap(b) != 1<<c {
		return
	}
	b = b[:0]
	buffers[c-minBufferClass].Put(&b)
}

// ReadBody reads r, which the caller has capped at limit, to its end into a
// pooled buffer; Recycle it when done. When the peer declared a length the
// buffer is taken once at that size: io.ReadAll's doubling growth costs
// several copies on a typical multi-kilobyte diagnose body, and the proxy
// path holds every body in memory (failover needs a replayable request).
// Otherwise it grows through the size classes. On an error the buffer is
// already back in the pool and nil is returned.
func ReadBody(r io.Reader, declared, limit int64) ([]byte, error) {
	if declared > 0 && declared <= limit {
		b := Buffer(int(declared))[:declared]
		if _, err := io.ReadFull(r, b); err != nil {
			Recycle(b)
			return nil, err
		}
		return b, nil
	}
	b := Buffer(0)
	for {
		if len(b) == cap(b) {
			grown := append(Buffer(2*cap(b)), b...)
			Recycle(b)
			b = grown
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		switch {
		case err == io.EOF:
			return b, nil
		case err != nil:
			Recycle(b)
			return nil, err
		}
	}
}

// jsonReply is the buffer WriteJSON encodes into, taken from the wire pool
// at the size the encoder writes.
type jsonReply []byte

func (b *jsonReply) Write(p []byte) (int, error) {
	if len(*b)+len(p) > cap(*b) {
		grown := append(Buffer(len(*b)+len(p)), *b...)
		Recycle(*b)
		*b = grown
	}
	*b = append(*b, p...)
	return len(p), nil
}

// WriteJSON writes v as a JSON response with a declared Content-Length.
// Encoding into a pooled buffer first is what lets it declare one: a
// large reply streamed straight to the connection goes out chunked, and a
// reader that cannot size its buffer from the header — the router taking
// a replica's batch reply — grows one by doubling instead. A value that
// does not encode (a NaN, say) is logged and answered 500, not a 200 with
// an empty body.
func WriteJSON(w http.ResponseWriter, v any) {
	var buf jsonReply
	defer func() { Recycle(buf) }()
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		slog.Warn("obs: JSON response not written", "type", fmt.Sprintf("%T", v), "err", err)
		http.Error(w, "internal error: response not encodable", http.StatusInternalServerError)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(buf)))
	w.Write(buf)
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

package analysis

import (
	"net/http"
	"strings"
	"time"

	"diagnet/internal/obs"
	"diagnet/internal/tracing"
)

// traceView is the JSON shape of GET /v1/traces/{id}: the trace header
// plus the span tree (children nested under parents, siblings by start
// time) instead of the recorder's flat span list.
type traceView struct {
	TraceID      string              `json:"trace_id"`
	Root         string              `json:"root"`
	Start        time.Time           `json:"start"`
	DurationMs   float64             `json:"duration_ms"`
	Error        bool                `json:"error"`
	Slow         bool                `json:"slow"`
	DroppedSpans int                 `json:"dropped_spans,omitempty"`
	Spans        []*tracing.SpanNode `json:"spans"`
}

// handleTraces serves GET /v1/traces, the kept-trace listing (newest
// first): slow and error traces from the always-keep ring plus the head
// sample of normal traffic. Each summary's trace_id is retrievable at
// /v1/traces/{id} — the target of the exemplar trace IDs that
// /v1/metrics attaches to its tail-latency lines.
func handleTraces(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, tracing.Default().Traces())
}

// handleTraceByID serves GET /v1/traces/{id} as a span tree. When several
// local roots share the ID (an in-process agent calling an in-process
// server), the recorder has already merged them into one record.
func handleTraceByID(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/v1/traces/")
	if id == "" || strings.Contains(id, "/") {
		http.Error(w, "trace id required", http.StatusBadRequest)
		return
	}
	rec, ok := tracing.Default().Trace(id)
	if !ok {
		http.Error(w, "trace not found (expired from the ring, or never sampled)", http.StatusNotFound)
		return
	}
	obs.WriteJSON(w, traceView{
		TraceID:      rec.TraceID,
		Root:         rec.Root,
		Start:        rec.Start,
		DurationMs:   rec.DurationMs,
		Error:        rec.Error,
		Slow:         rec.Slow,
		DroppedSpans: rec.DroppedSpans,
		Spans:        rec.Tree(),
	})
}

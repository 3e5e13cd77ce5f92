// Package analysis implements the paper's root-cause analysis service
// (Fig. 1): a central HTTP endpoint that owns the trained inference models
// and serves diagnoses to clients. Clients send their raw measurement
// vectors plus the landmark set they probed; the service answers with the
// coarse family and the ranked root-cause list, using the service's
// specialized model when one exists.
//
// Request execution is delegated to the serving engine
// (internal/serving): handlers validate, then submit into its batched,
// admission-controlled pipeline. Model lifecycle — versions, hot swap,
// rollback — is driven through the engine's registry and exposed on the
// /v1/models admin surface.
package analysis

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sort"
	"sync"
	"sync/atomic"

	"diagnet/internal/continual"
	"diagnet/internal/core"
	"diagnet/internal/drift"
	"diagnet/internal/obs"
	"diagnet/internal/probe"
	"diagnet/internal/serving"
	"diagnet/internal/telemetry"
)

// maxRequestBytes bounds a request body (8 MiB — a full 1024-request
// batch is ≈1 MiB of JSON, so this is generous without letting one
// client exhaust memory).
const maxRequestBytes = 8 << 20

// recoverMiddleware turns handler panics into 500s instead of letting one
// bad request kill the whole analysis process. (The route span, which
// lives inside obs.Instrument, separately marks the trace as errored — the
// trace survives in the always-keep ring even when this log line scrolls
// away.)
func recoverMiddleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				if rec == http.ErrAbortHandler {
					panic(rec) // deliberate connection abort, not a bug
				}
				slog.ErrorContext(r.Context(), "analysis: panic serving request",
					"method", r.Method, "path", r.URL.Path,
					"panic", fmt.Sprint(rec), "stack", string(debug.Stack()))
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// decodeBody decodes a bounded JSON request body, mapping oversized
// payloads to 413 and malformed JSON to 400. It reports whether decoding
// succeeded (the error response is already written otherwise).
func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBytes)
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
			return false
		}
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

// DiagnoseRequest is the client's payload: the landmark regions probed (in
// feature order) and the raw measurement vector under that layout.
type DiagnoseRequest struct {
	// ServiceID selects a specialized model; -1 or unknown IDs fall back
	// to the general model.
	ServiceID int `json:"service_id"`
	// Landmarks lists the probed landmark regions in feature order.
	Landmarks []int `json:"landmarks"`
	// Features is the raw measurement vector (len(Landmarks)·5 + 5).
	Features []float64 `json:"features"`
	// TopK bounds the returned cause list (default 5).
	TopK int `json:"top_k,omitempty"`
}

// Cause is one ranked root-cause candidate.
type Cause struct {
	Feature int     `json:"feature"`
	Name    string  `json:"name"`
	Family  string  `json:"family"`
	Score   float64 `json:"score"`
}

// DiagnoseResponse is the service's answer.
type DiagnoseResponse struct {
	Family        string    `json:"family"`
	Coarse        []float64 `json:"coarse"`
	UnknownWeight float64   `json:"unknown_weight"`
	Causes        []Cause   `json:"causes"`
	ModelService  int       `json:"model_service"` // -1 = general model
	// ModelVersion names the registry version that served the request;
	// every response is attributable to exactly one version even during a
	// hot swap.
	ModelVersion string `json:"model_version,omitempty"`
}

// ModelInfo describes the loaded models.
type ModelInfo struct {
	KnownRegions    []int  `json:"known_regions"`
	TotalParams     int    `json:"total_params"`
	TrainableParams int    `json:"trainable_params"`
	Specialized     []int  `json:"specialized_services"`
	ActiveVersion   string `json:"active_version,omitempty"`
}

// Server is the analysis service. Requests flow through the serving
// engine's bounded queue, micro-batcher and worker pool; models live in
// the engine's versioned registry and are hot-swapped atomically.
//
// The server feeds every coarse prediction into a drift detector
// (§II-A: networks and services evolve); once enableDrift has frozen a
// reference window, /v1/drift reports whether the live prediction
// distribution still matches it.
type Server struct {
	engine *serving.Engine

	// ModelDir, when non-empty, is the only directory the POST /v1/models
	// "load" action may read model files from. Empty disables loading over
	// HTTP (versions can still be registered in-process).
	ModelDir string

	// ready gates GET /readyz: false until Open's boot finishes, and again
	// once Close starts draining (/healthz stays 204 throughout).
	ready atomic.Bool

	mu    sync.Mutex // guards drift
	drift *drift.Detector

	// loop, when set via attachContinual, receives every served diagnosis
	// (pseudo-labeled sample + watchdog observation) and backs the
	// /v1/continual control surface.
	loop atomic.Pointer[continual.Controller]

	// What Open acquired beyond the engine, released by Close: the state
	// journal and the continual sample store (nil when the plane is off).
	persist *serving.Persistence
	store   *continual.SampleStore
}

// NewServer serves a general model from a default-configured, in-memory
// replica (version "boot", ready at once). Call Close to drain it.
func NewServer(general *core.Model) *Server {
	s, err := Open(Options{Bundle: core.NewBundle(general)})
	if err != nil {
		panic(fmt.Sprintf("analysis: %v", err)) // nil model or failed warm-up: a caller bug
	}
	return s
}

// NewServerFromEngine is the low-level constructor under Open: it wraps
// an engine whose registry the caller populates and promotes itself. The
// server takes over Close. It starts NOT ready: the caller signals
// SetReady(true) once its boot is done — until then GET /readyz answers
// 503 so load balancers hold traffic back.
func NewServerFromEngine(e *serving.Engine) *Server {
	return &Server{
		engine: e,
		drift:  drift.NewDetector(int(probe.NumFamilies), drift.Config{}),
	}
}

// SetReady flips the /readyz gate (Open sets it last; Close clears it
// first).
func (s *Server) SetReady(v bool) { s.ready.Store(v) }

// Ready reports the /readyz gate.
func (s *Server) Ready() bool { return s.ready.Load() }

// Engine exposes the serving engine (registry access, stats).
func (s *Server) Engine() *serving.Engine { return s.engine }

// enableDrift freezes the drift reference: diagnoses so far form the
// baseline, later ones fill the live window.
func (s *Server) enableDrift() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drift.Freeze()
}

// DriftStatus returns the detector's verdict.
func (s *Server) DriftStatus() drift.Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drift.Status()
}

// SetSpecialized registers a per-service model in the active version via
// the registry's copy-on-write snapshot swap — safe under concurrent
// Diagnose traffic.
func (s *Server) SetSpecialized(serviceID int, m *core.Model) error {
	return s.engine.Registry().SetSpecialized(serviceID, m)
}

// Handler returns the service's HTTP handler:
//
//	POST /v1/diagnose       → DiagnoseResponse
//	POST /v1/diagnose-batch → BatchResponse
//	GET  /v1/model          → ModelInfo
//	GET  /v1/models         → model registry listing (admin)
//	POST /v1/models         → load / promote / rollback (admin)
//	GET  /v1/continual      → continual-learning loop status (404 when disabled)
//	POST /v1/continual/retrain → trigger a retrain cycle
//	POST /v1/continual/samples → ingest labeled feedback samples
//	GET  /v1/metrics        → telemetry.Export as JSON (what the router federates)
//	GET  /v1/traces         → kept-trace summaries (newest first)
//	GET  /v1/traces/{id}    → one trace as a span tree
//	GET  /healthz           → 204 (liveness)
//	GET  /readyz            → 204 ready / 503 recovering or draining
//
// Every /v1 route is instrumented with request/error counters and a
// latency histogram; the aggregate is served by /v1/metrics itself. The
// mux owns the method checks: a wrong method is answered 405 with an Allow
// header before the route's instrumentation sees the request.
func (s *Server) Handler() http.Handler {
	instrument := func(route string, h http.HandlerFunc) http.HandlerFunc {
		return obs.Instrument(telemetry.Default(), "http", route, h)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/diagnose", instrument("diagnose", s.handleDiagnose))
	mux.HandleFunc("POST /v1/diagnose-batch", instrument("diagnose_batch", s.handleBatch))
	mux.HandleFunc("/v1/model", instrument("model", s.handleModel))
	mux.HandleFunc("GET /v1/models", instrument("models", s.handleModelsList))
	mux.HandleFunc("POST /v1/models", instrument("models", s.handleModelAction))
	mux.HandleFunc("/v1/drift", instrument("drift", func(w http.ResponseWriter, r *http.Request) {
		obs.WriteJSON(w, s.DriftStatus())
	}))
	mux.HandleFunc("GET /v1/continual", instrument("continual", s.handleContinual))
	mux.HandleFunc("POST /v1/continual/retrain", instrument("continual_retrain", s.handleContinualRetrain))
	mux.HandleFunc("POST /v1/continual/samples", instrument("continual_samples", s.handleContinualSamples))
	mux.HandleFunc("GET /v1/metrics", instrument("metrics", obs.MetricsHandler(telemetry.Default())))
	mux.HandleFunc("GET /v1/traces", instrument("traces", handleTraces))
	mux.HandleFunc("GET /v1/traces/", instrument("trace", handleTraceByID))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	// Readiness is distinct from liveness: 503 until state recovery
	// completes, 204 while serving, 503 again while draining. Kept out of
	// the instrumented routes — probes fire every few seconds and would
	// drown the request metrics.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !s.ready.Load() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	return recoverMiddleware(mux)
}

// BatchRequest carries several diagnosis requests at once (bulk
// post-mortem analysis of recorded incidents).
type BatchRequest struct {
	Requests []DiagnoseRequest `json:"requests"`
}

// BatchResponse answers a BatchRequest; Errors[i] is non-empty when
// Requests[i] was invalid (its Responses[i] is then null).
type BatchResponse struct {
	Responses []*DiagnoseResponse `json:"responses"`
	Errors    []string            `json:"errors"`
}

// maxBatch bounds a single batch request.
const maxBatch = 1024

// mBatchSize is the batch-size histogram; the per-route counters, latency
// histograms and the in-flight gauge (DESIGN.md §10) are obs.Instrument's.
var mBatchSize = telemetry.Default().Histogram("http.diagnose_batch.size", telemetry.SizeBuckets)

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Requests) == 0 || len(req.Requests) > maxBatch {
		http.Error(w, fmt.Sprintf("batch size must be in [1, %d]", maxBatch), http.StatusBadRequest)
		return
	}
	mBatchSize.Observe(float64(len(req.Requests)))
	resp := BatchResponse{
		Responses: make([]*DiagnoseResponse, len(req.Requests)),
		Errors:    make([]string, len(req.Requests)),
	}
	// Validate every sample, then hand the valid ones to the engine in one
	// call that queues them all, in request order, before it waits for any
	// (blocking admission, so a big batch squeezes through a small queue).
	// Workers cut micro-batches from what is queued and never wait, so a
	// goroutine per sample would trickle the batch in behind them and be
	// served as many small passes (DESIGN.md §11).
	subs := make([]*serving.Request, 0, len(req.Requests))
	slots := make([]int, 0, len(req.Requests)) // subs[k] is req.Requests[slots[k]]
	for i := range req.Requests {
		sub, err := s.validate(&req.Requests[i])
		if err != nil {
			resp.Errors[i] = err.Error()
			continue
		}
		subs, slots = append(subs, sub), append(slots, i)
	}
	results, errs := s.engine.SubmitAll(r.Context(), subs)
	for k, i := range slots {
		if errs[k] != nil {
			resp.Errors[i] = errs[k].Error()
			continue
		}
		resp.Responses[i] = s.respond(&req.Requests[i], subs[k].Layout, results[k])
	}
	obs.WriteJSON(w, resp)
}

func (s *Server) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	var req DiagnoseRequest
	if !decodeBody(w, r, &req) {
		return
	}
	resp, err := s.diagnose(r.Context(), &req, false)
	switch {
	case err == nil:
		obs.WriteJSON(w, resp)
	case errors.Is(err, serving.ErrQueueFull):
		// Admission control: tell the client when to come back instead of
		// letting the queue convoy collapse tail latency for everyone
		// (Retry-After has 1 s resolution; a full queue drains well inside it).
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, serving.ErrClosed):
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		// The client's deadline expired while queued; 503 lets a proxy
		// distinguish "shed" from "bad request".
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
	}
}

// Diagnose runs the pipeline on a request (also usable in-process). It
// blocks for queue space rather than shedding; HTTP handlers instead pass
// their request context and shed on overflow.
func (s *Server) Diagnose(req *DiagnoseRequest) (*DiagnoseResponse, error) {
	return s.diagnose(context.Background(), req, true)
}

// diagnose validates, submits to the serving engine and shapes the reply.
func (s *Server) diagnose(ctx context.Context, req *DiagnoseRequest, blocking bool) (*DiagnoseResponse, error) {
	sub, err := s.validate(req)
	if err != nil {
		return nil, err
	}
	var res *serving.Result
	if blocking {
		res, err = s.engine.SubmitWait(ctx, sub)
	} else {
		res, err = s.engine.Submit(ctx, sub)
	}
	if err != nil {
		return nil, err
	}
	return s.respond(req, sub.Layout, res), nil
}

// validate checks a request against the active model's deployment layout
// and shapes it for the engine: invalid requests never spend a queue slot.
func (s *Server) validate(req *DiagnoseRequest) (*serving.Request, error) {
	if len(req.Landmarks) == 0 {
		return nil, fmt.Errorf("analysis: no landmarks in request")
	}
	layout := probe.NewLayout(req.Landmarks)
	if len(req.Features) != layout.NumFeatures() {
		return nil, fmt.Errorf("analysis: %d features for %d landmarks (want %d)",
			len(req.Features), len(req.Landmarks), layout.NumFeatures())
	}
	bundle, _, err := s.engine.Registry().ActiveBundle()
	if err != nil {
		return nil, err
	}
	// Regions outside the model's deployment layout are unrepresentable in
	// the ensemble's cause space — reject them as a client error instead of
	// panicking deep inside the re-indexing (found by FuzzHandleDiagnose).
	if err := layout.Validate(bundle.General.FullLayout); err != nil {
		return nil, fmt.Errorf("analysis: bad landmark list: %w", err)
	}
	return &serving.Request{ServiceID: req.ServiceID, Layout: layout, Features: req.Features}, nil
}

// respond feeds a served diagnosis to the drift detector and the continual
// plane and shapes the client's reply.
func (s *Server) respond(req *DiagnoseRequest, layout probe.Layout, res *serving.Result) *DiagnoseResponse {
	diag := res.Diagnosis

	s.mu.Lock()
	s.drift.Observe(diag.Coarse)
	s.mu.Unlock()
	if ctrl := s.loop.Load(); ctrl != nil {
		s.feedContinual(ctrl, req, layout, diag)
	}

	topK := req.TopK
	if topK <= 0 {
		topK = 5
	}
	if topK > layout.NumFeatures() {
		topK = layout.NumFeatures()
	}
	resp := &DiagnoseResponse{
		Family:        diag.Family.String(),
		Coarse:        diag.Coarse,
		UnknownWeight: diag.UnknownWeight,
		ModelService:  res.ModelService,
		ModelVersion:  res.Version,
		Causes:        make([]Cause, 0, topK),
	}
	for _, j := range diag.Top(topK) {
		resp.Causes = append(resp.Causes, Cause{
			Feature: j,
			Name:    layout.FeatureName(j),
			Family:  layout.FamilyOf(j).String(),
			Score:   diag.Final[j],
		})
	}
	return resp
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	bundle, version, err := s.engine.Registry().ActiveBundle()
	if err != nil {
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	total, trainable := bundle.General.ParamCount()
	info := ModelInfo{
		KnownRegions:    append([]int(nil), bundle.General.TrainLayout.Landmarks...),
		TotalParams:     total,
		TrainableParams: trainable,
		ActiveVersion:   version,
	}
	for id := range bundle.Specialized {
		info.Specialized = append(info.Specialized, id)
	}
	sort.Ints(info.Specialized)
	obs.WriteJSON(w, info)
}

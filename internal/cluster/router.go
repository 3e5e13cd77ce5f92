package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"diagnet/internal/analysis"
	"diagnet/internal/obs"
	"diagnet/internal/resilience"
	"diagnet/internal/telemetry"
	"diagnet/internal/tracing"
)

// Router fans client traffic across a pool of diagnetd replicas with
// health-aware selection, failover, scatter-gather batches and honored
// backpressure. See the package comment for the policy.
type Router struct {
	cfg    Config
	pool   *Pool
	client *http.Client

	failovers    atomic.Int64
	backpressure atomic.Int64

	// obs is the fleet observability plane (federation, SLO engine); nil
	// unless Config.Obs enables it.
	obs *routerObs

	handler http.Handler
}

// NewRouter builds a router over the given replica base URLs and starts
// the pool's health sweeper. Call Close to stop it.
func NewRouter(urls []string, cfg Config) *Router {
	cfg = cfg.withDefaults()
	rt := &Router{
		cfg:  cfg,
		pool: NewPool(urls, cfg),
		client: &http.Client{
			// Per-attempt deadlines come from the attempt context
			// (AttemptTimeout); the client itself sets none.
			Transport: cfg.Transport,
		},
	}
	rt.obs = newRouterObs(rt.pool, cfg.Obs)
	// Every replica attempt a route makes becomes a child of its route
	// span, so one trace shows route → attempt → replica across the hop.
	route := func(name string, h http.HandlerFunc) http.HandlerFunc {
		return obs.Instrument(telemetry.Default(), "router", name, h)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/diagnose", route("diagnose", rt.handleDiagnose))
	mux.HandleFunc("POST /v1/diagnose-batch", route("diagnose_batch", rt.handleBatch))
	mux.HandleFunc("GET /v1/model", route("model", rt.handleModel))
	mux.HandleFunc("GET /v1/metrics", route("metrics", obs.MetricsHandler(telemetry.Default())))
	mux.HandleFunc("/v1/replicas", route("replicas", rt.handleReplicas))
	mux.HandleFunc("GET /v1/fleet/metrics", rt.handleFleetMetrics)
	mux.HandleFunc("GET /v1/slo", rt.handleSLO)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	// The router is ready when it can route: at least one replica passed
	// its last readiness probe. Load balancers in front of a router fleet
	// use this exactly like the per-replica /readyz.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if rt.pool.healthyCount() == 0 {
			http.Error(w, "no ready replicas", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	rt.handler = mux
	return rt
}

// Close stops the observability plane, then the health sweeper, then
// releases the shared transport's idle upstream connections. In-flight
// requests finish on their own contexts. Idempotent.
func (rt *Router) Close() {
	if rt.obs != nil {
		rt.obs.close()
	}
	rt.pool.Close()
	if tr, ok := rt.cfg.Transport.(interface{ CloseIdleConnections() }); ok {
		tr.CloseIdleConnections()
	}
}

// Pool exposes the replica pool (status, tests).
func (rt *Router) Pool() *Pool { return rt.pool }

// Stats returns the failover and backpressure counters.
func (rt *Router) Stats() Stats {
	return Stats{
		Failovers:    rt.failovers.Load(),
		Backpressure: rt.backpressure.Load(),
	}
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.handler.ServeHTTP(w, r)
}

// attemptOutcome is one replica attempt's result.
type attemptOutcome struct {
	rep    *Replica
	status int
	header http.Header
	body   []byte
	err    error
}

// definitive reports an answer every replica would agree on — a success or
// a terminal client error — as opposed to a transport error, a 5xx or a
// 429, which send the request to the next candidate.
func (o attemptOutcome) definitive() bool {
	return o.err == nil && o.status != http.StatusTooManyRequests && o.status < 500
}

// writeUpstream relays an upstream response (or routing failure) to the
// client.
func writeUpstream(w http.ResponseWriter, out attemptOutcome) {
	if out.err != nil {
		http.Error(w, "cluster: "+out.err.Error(), http.StatusServiceUnavailable)
		return
	}
	if ct := out.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := out.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(out.status)
	w.Write(out.body)
}

// route sends one request to the pool, one attempt at a time on the
// caller's goroutine: the candidates in Ranked order, each tried at most
// once. The first definitive answer is returned; a 429 parks its replica
// and moves on; a transport error or a 5xx fails over to the next. A
// request whose client went away stops where it is — neither failed over
// nor blamed on the replica.
func (rt *Router) route(ctx context.Context, method, path string, body []byte) attemptOutcome {
	var failed, loaded attemptOutcome // the last transient failure and the last 429
	failover := false                 // the previous attempt failed transiently
	for _, rep := range rt.pool.Ranked() {
		// The breaker gate sits here, not in Ranked: Allow may hand us the
		// single half-open trial slot, which obliges this attempt to settle
		// it — attempt() always does.
		if _, ok := rep.breaker.Allow(); !ok {
			continue
		}
		if failover {
			rt.failovers.Add(1)
			mFailovers.Inc()
		}
		out := rt.attempt(ctx, rep, method, path, body)
		switch {
		case out.definitive():
			return out
		case ctx.Err() != nil:
			return attemptOutcome{err: ctx.Err()}
		case out.err == nil && out.status == http.StatusTooManyRequests:
			// Backpressure: park the replica for its advertised window and
			// try the next candidate — never the same one again.
			ra := analysis.ParseRetryAfter(out.header)
			if ra <= 0 {
				ra = loadedFallback
			}
			rep.markLoaded(rt.cfg.Now(), ra)
			rt.backpressure.Add(1)
			mBackpressure.Inc()
			loaded, failover = out, false
		default:
			// Transient: the attempt already fed the breaker.
			failed, failover = out, true
		}
	}
	switch {
	case loaded.rep != nil:
		return loaded // a "come back later" beats a hard failure
	case failed.rep != nil:
		return failed
	}
	return attemptOutcome{err: errNoReplicas}
}

// attempt runs one proxied request against one replica as a run of the
// router.attempt stage, the traceparent injected so the replica's route
// span joins the same trace. It gives the breaker a verdict — none when the
// client went away, which says nothing about the replica's health — and,
// for a definitive answer only, feeds the replica's latency EWMA: a replica
// that fails or sheds instantly must not look like the fastest one to the
// placement tiebreak.
func (rt *Router) attempt(ctx context.Context, rep *Replica, method, path string, body []byte) attemptOutcome {
	// Outstanding from before the round trip, so a concurrently ranked
	// request (a sibling scatter chunk) sees this replica as busy.
	rep.outstanding.Add(1)
	defer rep.outstanding.Add(-1)
	actx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
	defer cancel()
	clock := stAttempt.Start(actx)
	defer clock.End()
	span := clock.Span()
	span.SetAttr("replica", rep.name)

	start := time.Now()
	out := rt.exchange(tracing.ContextWithSpan(actx, span), rep, method, path, body)
	switch {
	case out.err != nil:
		span.SetError(out.err)
		if ctx.Err() != nil {
			rep.breaker.Release()
		} else {
			rep.breaker.Failure()
		}
	case out.status >= 500:
		span.SetAttr("http.status", out.status)
		span.SetError(fmt.Errorf("replica %s: http %d", rep.name, out.status))
		rep.breaker.Failure()
	default:
		span.SetAttr("http.status", out.status)
		rep.breaker.Success()
		if out.definitive() {
			rep.lat.Observe(telemetry.Millis(time.Since(start)))
		}
	}
	return out
}

// exchange is the HTTP round trip of one attempt.
func (rt *Router) exchange(ctx context.Context, rep *Replica, method, path string, body []byte) attemptOutcome {
	out := attemptOutcome{rep: rep}
	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, rep.name+path, reader)
	if err != nil {
		out.err = err
		return out
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	tracing.Inject(ctx, req.Header)
	resp, err := rt.client.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	// Bounded tail drain before Close: readBounded may stop short of EOF
	// (Content-Length fast path, maxBody cap), and an undrained body costs
	// the keep-alive connection on every proxied request.
	defer resilience.DrainClose(resp.Body, 32<<10)
	out.status, out.header = resp.StatusCode, resp.Header
	out.body, out.err = readBounded(io.LimitReader(resp.Body, maxBody), resp.ContentLength)
	return out
}

// readBounded reads r, which the caller has capped at maxBody, to its end.
// When the peer declared a length the buffer is allocated once at that
// size — io.ReadAll's doubling growth costs several copies on a typical
// multi-kilobyte diagnose body, and the proxy path holds every body in
// memory (failover needs a replayable request).
func readBounded(r io.Reader, declared int64) ([]byte, error) {
	if declared > 0 && declared <= maxBody {
		body := make([]byte, declared)
		n, err := io.ReadFull(r, body)
		return body[:n], err
	}
	return io.ReadAll(r)
}

// readBody reads a request body, answering 413 past maxBody.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := readBounded(http.MaxBytesReader(w, r.Body, maxBody), r.ContentLength)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit), http.StatusRequestEntityTooLarge)
		} else {
			http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
		}
		return nil, false
	}
	return body, true
}

func (rt *Router) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	writeUpstream(w, rt.route(r.Context(), http.MethodPost, "/v1/diagnose", body))
}

func (rt *Router) handleModel(w http.ResponseWriter, r *http.Request) {
	writeUpstream(w, rt.route(r.Context(), http.MethodGet, "/v1/model", nil))
}

func (rt *Router) handleReplicas(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, rt.pool.Status())
}

// The batch envelopes of the analysis plane's /v1/diagnose-batch, every
// element left as the bytes it arrived in: the router splits and merges on
// element boundaries and reads nothing inside one.
type (
	batchRequest struct {
		Requests []json.RawMessage `json:"requests"`
	}
	batchResponse struct {
		Responses []json.RawMessage `json:"responses"`
		Errors    []string          `json:"errors"`
	}
)

// encodeRaw writes v as JSON without HTML escaping, which would rewrite
// the strings inside a RawMessage element.
func encodeRaw(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// handleBatch scatter-gathers a batch: the request list is split into
// contiguous chunks (one per ready replica, no smaller than batchChunk),
// the chunks run in parallel, each through the same failover loop as a
// single request, and the per-chunk responses are merged back in request
// order. One failed chunk fails the whole batch with that chunk's status
// — partial batches would silently drop incidents from bulk post-mortems.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req batchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	n := len(req.Requests)
	if n == 0 || n > maxBatch {
		http.Error(w, fmt.Sprintf("batch size must be in [1, %d]", maxBatch), http.StatusBadRequest)
		return
	}

	ways := min(max(rt.pool.healthyCount(), 1), (n+batchChunk-1)/batchChunk)
	mScatterChunks.Observe(float64(ways))
	if span := tracing.FromContext(r.Context()); span != nil {
		span.SetAttr("batch.size", n)
		span.SetAttr("batch.chunks", ways)
	}

	merged := batchResponse{Responses: make([]json.RawMessage, n), Errors: make([]string, n)}
	failed := make(chan attemptOutcome, ways) // one slot per chunk: a send never blocks
	var wg sync.WaitGroup
	chunk := (n + ways - 1) / ways
	for off := 0; off < n; off += chunk {
		end := min(off+chunk, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if fail := rt.routeChunk(r.Context(), req.Requests[off:end], merged.Responses[off:end], merged.Errors[off:end]); fail != nil {
				failed <- *fail
			}
		}()
	}
	wg.Wait()
	select {
	case out := <-failed:
		writeUpstream(w, out)
	default:
		w.Header().Set("Content-Type", "application/json")
		if err := encodeRaw(w, merged); err != nil {
			slog.Warn("cluster: merged batch reply not written", "err", err)
		}
	}
}

// routeChunk sends one contiguous run of batch elements through route and
// copies the replica's answer into the merged reply's matching slots; a
// non-nil result is the outcome that fails the batch. A reply without
// exactly one response and one error slot per element is a failure like
// any other — merged as it stands it would be a null response beside an
// empty error, an incident dropped without a word.
func (rt *Router) routeChunk(ctx context.Context, elems, responses []json.RawMessage, errs []string) *attemptOutcome {
	var payload bytes.Buffer
	if err := encodeRaw(&payload, batchRequest{elems}); err != nil {
		return &attemptOutcome{err: err}
	}
	out := rt.route(ctx, http.MethodPost, "/v1/diagnose-batch", payload.Bytes())
	if out.err != nil || out.status != http.StatusOK {
		return &out
	}
	var part batchResponse
	if err := json.Unmarshal(out.body, &part); err != nil || len(part.Responses) != len(elems) || len(part.Errors) != len(elems) {
		return &attemptOutcome{err: fmt.Errorf("replica %s returned a malformed batch chunk", out.rep.Name())}
	}
	copy(responses, part.Responses)
	copy(errs, part.Errors)
	return nil
}

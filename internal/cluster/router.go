package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
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
// health-aware selection, tail-latency hedging, scatter-gather batches
// and honored backpressure. See the package comment for the policy.
type Router struct {
	cfg    Config
	pool   *Pool
	client *http.Client

	// latHist is the router-local attempt-latency histogram the adaptive
	// hedge delay reads its p90 from (private so concurrent routers in
	// one process — tests — do not pollute each other's tails).
	latHist *telemetry.Histogram

	hedges         atomic.Int64
	hedgeWins      atomic.Int64
	losersCanceled atomic.Int64
	failovers      atomic.Int64
	backpressure   atomic.Int64

	// obs is the fleet observability plane (federation, SLO engine,
	// anomaly profiler); nil unless Config.Obs enables it.
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
			// Per-attempt deadlines come from the attempt context; the
			// client itself must not cut hedged winners short.
			Transport: cfg.Transport,
		},
		latHist: telemetry.NewHistogram(nil),
	}
	rt.obs = newRouterObs(rt.pool, cfg.Obs)
	// Every replica attempt a route makes becomes a child of its route
	// span, so one trace shows route → attempt → hedge across the hop.
	route := func(name string, h http.HandlerFunc) http.HandlerFunc {
		return obs.Instrument(telemetry.Default(), "router", name, h)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/diagnose", route("diagnose", rt.handleDiagnose))
	mux.HandleFunc("POST /v1/diagnose-batch", route("diagnose_batch", rt.handleBatch))
	mux.HandleFunc("GET /v1/model", route("model", rt.handleModel))
	mux.HandleFunc("GET /v1/metrics", route("metrics", obs.MetricsHandler(telemetry.Default())))
	mux.HandleFunc("/v1/replicas", route("replicas", rt.handleReplicas))
	mux.Handle("GET /metrics", obs.ExpositionHandler(telemetry.Default()))
	mux.HandleFunc("GET /v1/fleet/metrics", rt.handleFleetMetrics)
	mux.HandleFunc("GET /v1/slo", rt.handleSLO)
	mux.HandleFunc("GET /v1/profiles", rt.handleProfiles)
	mux.HandleFunc("GET /v1/profiles/", rt.handleProfiles)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	// The router is ready when it can route: at least one replica passed
	// its last readiness probe. Load balancers in front of a router fleet
	// use this exactly like the per-replica /readyz.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if rt.pool.HealthyCount() == 0 {
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

// Stats returns the hedging/failover counters.
func (rt *Router) Stats() Stats {
	return Stats{
		Hedges:         rt.hedges.Load(),
		HedgeWins:      rt.hedgeWins.Load(),
		LosersCanceled: rt.losersCanceled.Load(),
		Failovers:      rt.failovers.Load(),
		Backpressure:   rt.backpressure.Load(),
	}
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rt.handler.ServeHTTP(w, r)
}

// hedgeDelay returns the current hedging delay, or a negative duration
// when hedging is disabled. With HedgeAfter unset the delay tracks the
// observed attempt-latency p90 (floored at HedgeMin): hedge only the
// requests already slower than nine in ten, so the duplicate-work rate
// stays around 10% while the p99 collapses toward the p90.
func (rt *Router) hedgeDelay() time.Duration {
	if rt.cfg.HedgeAfter != 0 {
		return rt.cfg.HedgeAfter
	}
	if rt.latHist.Count() < 20 {
		return rt.cfg.HedgeDefault
	}
	d := time.Duration(rt.latHist.Quantile(0.90) * float64(time.Millisecond))
	if d < rt.cfg.HedgeMin {
		d = rt.cfg.HedgeMin
	}
	return d
}

// attemptOutcome is one replica attempt's result.
type attemptOutcome struct {
	rep    *Replica
	hedged bool
	status int
	header http.Header
	body   []byte
	err    error
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

// route sends one request to the pool: primary attempt on the best-ranked
// replica, an optional hedge to the next after hedgeDelay, failover on
// transient failures, honored backpressure on 429. Each candidate is
// tried at most once; the first definitive answer wins and every other
// in-flight attempt is canceled.
func (rt *Router) route(ctx context.Context, method, path string, body []byte, key string, hedge bool) attemptOutcome {
	cands := rt.pool.Ranked(key)
	if len(cands) == 0 {
		return attemptOutcome{err: ErrNoReplicas}
	}
	actx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()
	ch := make(chan attemptOutcome, len(cands)) // buffered: a loser finishing late never blocks

	next, inflight := 0, 0
	launch := func(hedged bool) bool {
		for next < len(cands) {
			rep := cands[next]
			next++
			// The breaker gate sits here, not in Ranked: Allow may hand us
			// the single half-open trial slot, which obliges this attempt
			// to report an outcome — attempt() always does.
			if _, ok := rep.breaker.Allow(); !ok {
				continue
			}
			if hedged {
				rt.hedges.Add(1)
				mHedges.Inc()
			}
			inflight++
			// Count the attempt as outstanding before the goroutine is
			// scheduled, so a concurrently-ranked request (e.g. a sibling
			// scatter chunk) sees this replica as busy and spreads out.
			rep.outstanding.Add(1)
			go rt.attempt(actx, rep, method, path, body, hedged, ch)
			return true
		}
		return false
	}
	if !launch(false) {
		return attemptOutcome{err: ErrNoReplicas}
	}

	var hedgeC <-chan time.Time
	if hedge {
		if d := rt.hedgeDelay(); d >= 0 && len(cands) > 1 {
			t := time.NewTimer(d)
			defer t.Stop()
			hedgeC = t.C
		}
	}

	var lastFail, loaded429 attemptOutcome
	saw429 := false
	for {
		select {
		case out := <-ch:
			inflight--
			switch {
			case out.err == nil && out.status != http.StatusTooManyRequests && out.status < 500:
				// Definitive: success, or a terminal client error every
				// replica would agree on. Cancel the losers.
				if out.hedged {
					rt.hedgeWins.Add(1)
					mHedgeWins.Inc()
				}
				if inflight > 0 {
					rt.losersCanceled.Add(int64(inflight))
					mLosersCanceled.Add(int64(inflight))
				}
				return out
			case out.err == nil && out.status == http.StatusTooManyRequests:
				// Backpressure: park the replica for its advertised window
				// and try the next candidate — never the same one again.
				ra := analysis.ParseRetryAfter(out.header)
				if ra <= 0 {
					ra = rt.cfg.LoadedFallback
				}
				out.rep.markLoaded(rt.cfg.Now(), ra)
				rt.backpressure.Add(1)
				mBackpressure.Inc()
				loaded429, saw429 = out, true
				if !launch(false) && inflight == 0 {
					return out // every candidate is loaded: honor the 429
				}
			default:
				// Transient: transport error or 5xx. Fail over to the next
				// candidate; the attempt already fed the breaker.
				lastFail = out
				if launch(false) {
					rt.failovers.Add(1)
					mFailovers.Inc()
				} else if inflight == 0 {
					if saw429 {
						return loaded429 // a "come back later" beats a hard failure
					}
					return lastFail
				}
			}
		case <-hedgeC:
			hedgeC = nil
			launch(true)
		case <-ctx.Done():
			return attemptOutcome{err: ctx.Err()}
		}
	}
}

// attempt runs one proxied request against one replica, feeding the
// breaker, the latency EWMA and the attempt histogram, and tracing the
// hop as a "cluster.attempt" child span with the traceparent injected so
// the replica's route span joins the same trace.
func (rt *Router) attempt(ctx context.Context, rep *Replica, method, path string, body []byte, hedged bool, ch chan<- attemptOutcome) {
	out := attemptOutcome{rep: rep, hedged: hedged}
	defer rep.outstanding.Add(-1) // matches the Add(1) at the launch site
	actx, cancel := context.WithTimeout(ctx, rt.cfg.AttemptTimeout)
	defer cancel()
	actx, span := tracing.StartSpan(actx, "cluster.attempt")
	span.SetAttr("replica", rep.name)
	span.SetAttr("hedge", hedged)
	defer span.End()

	var reader io.Reader
	if body != nil {
		reader = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(actx, method, rep.name+path, reader)
	if err != nil {
		// A malformed URL is the router's bug, not the replica's failure.
		out.err = err
		span.SetError(err)
		rep.breaker.Success()
		ch <- out
		return
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	tracing.Inject(actx, req.Header)

	start := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		out.err = err
		span.SetError(err)
		if errors.Is(err, context.Canceled) {
			// A canceled hedge loser says nothing about the replica's
			// health; only real failures may open the breaker.
			rep.breaker.Success()
		} else {
			rep.breaker.Failure()
		}
		ch <- out
		return
	}
	// Bounded tail drain before Close: readResponse may stop short of EOF
	// (Content-Length fast path, maxBody cap), and an undrained body costs
	// the keep-alive connection on every proxied request.
	defer resilience.DrainClose(resp.Body, 32<<10)
	out.status = resp.StatusCode
	out.header = resp.Header
	if out.body, err = readResponse(resp); err != nil {
		out.err = err
		out.body = nil
		span.SetError(err)
		if errors.Is(err, context.Canceled) {
			rep.breaker.Success()
		} else {
			rep.breaker.Failure()
		}
		ch <- out
		return
	}
	lat := telemetry.Millis(time.Since(start))
	rep.lat.Observe(lat)
	rt.latHist.Observe(lat)
	mAttemptLatency.ObserveExemplar(lat, span.TraceID())
	span.SetAttr("http.status", resp.StatusCode)
	if resp.StatusCode >= 500 {
		span.SetError(fmt.Errorf("replica %s: http %d", rep.name, resp.StatusCode))
		rep.breaker.Failure()
	} else {
		rep.breaker.Success()
	}
	ch <- out
}

// readResponse reads a bounded upstream response body, preallocating
// from Content-Length when the replica sent one.
func readResponse(resp *http.Response) ([]byte, error) {
	if cl := resp.ContentLength; cl > 0 && cl <= maxBody {
		body := make([]byte, cl)
		n, err := io.ReadFull(resp.Body, body)
		return body[:n], err
	}
	return io.ReadAll(io.LimitReader(resp.Body, maxBody))
}

// readBody reads a bounded request body, mapping oversize to 413. When
// the client sent a Content-Length the buffer is allocated once at that
// size — io.ReadAll's doubling growth costs several copies on a typical
// multi-kilobyte diagnose body, and the proxy path reads every request
// into memory (hedging needs a replayable body).
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	lr := http.MaxBytesReader(w, r.Body, maxBody)
	var body []byte
	var err error
	if cl := r.ContentLength; cl > 0 && cl <= maxBody {
		body = make([]byte, cl)
		var n int
		n, err = io.ReadFull(lr, body)
		body = body[:n]
		if err == io.ErrUnexpectedEOF || err == io.EOF {
			err = nil // a short body is the client's problem downstream
		}
	} else {
		body, err = io.ReadAll(lr)
	}
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

// affinityKey extracts the consistent-hash key from a diagnose payload:
// the service ID, so per-service specialized models stay cache-warm on
// their replicas. The scan is byte-level, not a JSON decode — a diagnose
// body is dominated by the feature vector, and fully unmarshaling it just
// to read one int costs more than the rest of the proxy hop combined. A
// missing or unparsable ID yields no key (affinity is a placement hint;
// validation stays the replica's job).
func (rt *Router) affinityKey(body []byte) string {
	if rt.cfg.NoAffinity {
		return ""
	}
	id, ok := scanServiceID(body)
	if !ok {
		return ""
	}
	return "svc:" + strconv.Itoa(id)
}

// scanServiceID finds `"service_id": <int>` in a JSON object without
// decoding the document. A pathological body could hide the pattern
// inside a string value and skew the key, but the key only steers
// placement — every replica serves every service — so the cheap scan is
// safe.
func scanServiceID(body []byte) (int, bool) {
	i := bytes.Index(body, []byte(`"service_id"`))
	if i < 0 {
		return 0, false
	}
	i += len(`"service_id"`)
	for i < len(body) && (body[i] == ' ' || body[i] == '\t' || body[i] == '\n' || body[i] == '\r') {
		i++
	}
	if i >= len(body) || body[i] != ':' {
		return 0, false
	}
	i++
	for i < len(body) && (body[i] == ' ' || body[i] == '\t' || body[i] == '\n' || body[i] == '\r') {
		i++
	}
	j := i
	if j < len(body) && body[j] == '-' {
		j++
	}
	for j < len(body) && body[j] >= '0' && body[j] <= '9' {
		j++
	}
	id, err := strconv.Atoi(string(body[i:j]))
	if err != nil {
		return 0, false
	}
	return id, true
}

func (rt *Router) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	out := rt.route(r.Context(), http.MethodPost, "/v1/diagnose", body, rt.affinityKey(body), true)
	writeUpstream(w, out)
}

func (rt *Router) handleModel(w http.ResponseWriter, r *http.Request) {
	writeUpstream(w, rt.route(r.Context(), http.MethodGet, "/v1/model", nil, "", false))
}

func (rt *Router) handleReplicas(w http.ResponseWriter, r *http.Request) {
	obs.WriteJSON(w, rt.pool.Status())
}

// handleBatch scatter-gathers a batch: the request list is split into
// contiguous chunks (one per ready replica, no smaller than BatchChunk),
// the chunks run in parallel through the same failover machinery as
// single requests, and the per-chunk responses are merged back in request
// order. One failed chunk fails the whole batch with that chunk's status
// — partial batches would silently drop incidents from bulk post-mortems.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	var req analysis.BatchRequest
	if err := json.Unmarshal(body, &req); err != nil {
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	n := len(req.Requests)
	if n == 0 || n > maxBatch {
		http.Error(w, fmt.Sprintf("batch size must be in [1, %d]", maxBatch), http.StatusBadRequest)
		return
	}

	ways := rt.pool.HealthyCount()
	if ways < 1 {
		ways = 1
	}
	if max := (n + rt.cfg.BatchChunk - 1) / rt.cfg.BatchChunk; ways > max {
		ways = max
	}
	mScatterChunks.Observe(float64(ways))
	if span := tracing.FromContext(r.Context()); span != nil {
		span.SetAttr("batch.size", n)
		span.SetAttr("batch.chunks", ways)
	}

	merged := analysis.BatchResponse{
		Responses: make([]*analysis.DiagnoseResponse, n),
		Errors:    make([]string, n),
	}
	type chunkFail struct {
		out attemptOutcome
	}
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		fail *chunkFail
	)
	chunk := (n + ways - 1) / ways
	for off := 0; off < n; off += chunk {
		end := off + chunk
		if end > n {
			end = n
		}
		wg.Add(1)
		go func(off, end int) {
			defer wg.Done()
			payload, err := json.Marshal(analysis.BatchRequest{Requests: req.Requests[off:end]})
			if err != nil {
				mu.Lock()
				if fail == nil {
					fail = &chunkFail{attemptOutcome{err: err}}
				}
				mu.Unlock()
				return
			}
			out := rt.route(r.Context(), http.MethodPost, "/v1/diagnose-batch", payload, "", false)
			if out.err != nil || out.status != http.StatusOK {
				mu.Lock()
				if fail == nil {
					fail = &chunkFail{out}
				}
				mu.Unlock()
				return
			}
			var part analysis.BatchResponse
			if err := json.Unmarshal(out.body, &part); err != nil || len(part.Responses) != end-off {
				mu.Lock()
				if fail == nil {
					fail = &chunkFail{attemptOutcome{err: fmt.Errorf("cluster: replica %s returned a malformed batch chunk", out.rep.Name())}}
				}
				mu.Unlock()
				return
			}
			copy(merged.Responses[off:end], part.Responses)
			copy(merged.Errors[off:end], part.Errors)
		}(off, end)
	}
	wg.Wait()
	if fail != nil {
		writeUpstream(w, fail.out)
		return
	}
	obs.WriteJSON(w, merged)
}

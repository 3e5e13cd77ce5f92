package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"diagnet/internal/analysis"
	"diagnet/internal/jsonscan"
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

// handleBatch scatter-gathers a batch: the request list is split into
// contiguous chunks (one per ready replica, no smaller than batchChunk),
// the chunks run in parallel, each through the same failover loop as a
// single request, and the per-chunk responses are merged back in request
// order. One failed chunk fails the whole batch with that chunk's status
// — partial batches would silently drop incidents from bulk post-mortems.
//
// The router forwards; it does not decode. One validating scan of the
// envelope (scanBatch) finds where each element starts and ends, each
// chunk is those elements' bytes inside a fresh envelope, and the merged
// reply is the replicas' own response and error slots, byte for byte.
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	elems, space, err := scanBatch(body)
	if err != nil {
		http.Error(w, "bad JSON: "+err.Error(), http.StatusBadRequest)
		return
	}
	n := len(elems)
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

	// Every chunk's payload is cut from one buffer: compacting never
	// lengthens the elements, so it holds them all plus an envelope each.
	chunk := (n + ways - 1) / ways
	parts := make([]chunkReply, (n+chunk-1)/chunk)
	payloads := make([]byte, 0, len(body)+len(parts)*len(requestsOpen+requestsClose))
	failed := make(chan attemptOutcome, len(parts)) // one slot per chunk: a send never blocks
	var wg sync.WaitGroup
	for k := range parts {
		off, end := k*chunk, min((k+1)*chunk, n)
		start := len(payloads)
		payloads = append(payloads, requestsOpen...)
		payloads = appendElements(payloads, body, elems[off:end], space)
		payloads = append(payloads, requestsClose...)
		payload := payloads[start:len(payloads):len(payloads)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if fail := rt.routeChunk(r.Context(), payload, end-off, &parts[k]); fail != nil {
				failed <- *fail
			}
		}()
	}
	wg.Wait()
	select {
	case out := <-failed:
		writeUpstream(w, out)
	default:
		merged := mergeReplies(parts)
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(len(merged)))
		w.Write(merged)
	}
}

// The envelopes the router writes: around each chunk's elements, and
// around the merged reply's two slot lists.
const (
	requestsOpen  = `{"requests":[`
	requestsClose = `]}`
	mergedOpen    = `{"responses":[`
	mergedMiddle  = `],"errors":[`
	mergedClose   = "]}\n"
)

// chunkReply is one chunk's answer as the router keeps it: the replica's
// body, and where its response and error slots lie in it.
type chunkReply struct {
	body              []byte
	responses, errors []span
	space             bool // whitespace in the body, to compact away
}

// routeChunk sends one chunk of n elements through route and records the
// replica's answer in reply; a non-nil result is the outcome that fails
// the batch. A reply that does not parse, or lacks exactly one response
// and one error slot per element, is a failure like any other — merged as
// it stands it would be a null response beside an empty error, an incident
// dropped without a word.
func (rt *Router) routeChunk(ctx context.Context, payload []byte, n int, reply *chunkReply) *attemptOutcome {
	out := rt.route(ctx, http.MethodPost, "/v1/diagnose-batch", payload)
	if out.err != nil || out.status != http.StatusOK {
		return &out
	}
	*reply = scanReply(out.body)
	if len(reply.responses) != n || len(reply.errors) != n {
		return &attemptOutcome{err: fmt.Errorf("replica %s returned a malformed batch chunk", out.rep.Name())}
	}
	return nil
}

// mergeReplies writes the merged batch reply, every slot as its replica
// sent it, into one buffer sized for all of them.
func mergeReplies(parts []chunkReply) []byte {
	size := len(mergedOpen + mergedMiddle + mergedClose)
	for _, p := range parts {
		size += len(p.body)
	}
	out := append(make([]byte, 0, size), mergedOpen...)
	for k, p := range parts {
		if k > 0 {
			out = append(out, ',')
		}
		out = appendElements(out, p.body, p.responses, p.space)
	}
	out = append(out, mergedMiddle...)
	for k, p := range parts {
		if k > 0 {
			out = append(out, ',')
		}
		out = appendElements(out, p.body, p.errors, p.space)
	}
	return append(out, mergedClose...)
}

// span is where one array element's bytes lie in a document.
type span struct{ start, end int }

// appendElements appends the consecutive elements elems of doc, comma
// separated and compacted — one by one when space says the scan met
// whitespace, for only then can there be any to remove.
func appendElements(dst, doc []byte, elems []span, space bool) []byte {
	if !space {
		return append(dst, doc[elems[0].start:elems[len(elems)-1].end]...)
	}
	for k, e := range elems {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = jsonscan.AppendCompact(dst, doc[e.start:e.end])
	}
	return dst
}

var (
	batchFields = []string{"requests"}
	replyFields = []string{"responses", "errors"}
)

// scanBatch validates a batch request in one pass and returns its
// elements' spans. It accepts exactly what json.Unmarshal accepts into
// {"requests": []json.RawMessage} — a null document or a null or absent
// list is no elements, a repeated key's last list wins — and space
// reports whitespace among the elements.
func scanBatch(body []byte) (elems []span, space bool, err error) {
	s := jsonscan.New(body)
	err = s.Object(func(key []byte) error {
		if jsonscan.Field(key, batchFields) != 0 {
			return s.Skip()
		}
		var err error
		elems, space, err = scanArray(&s, s.Skip)
		return err
	})
	if err == nil {
		err = s.End()
	}
	return elems, space, err
}

// scanReply validates a replica's batch reply as json.Unmarshal would
// into {"responses": []json.RawMessage, "errors": []string} and records
// its slots. A reply that does not parse has none, which no chunk accepts.
func scanReply(body []byte) chunkReply {
	s := jsonscan.New(body)
	reply := chunkReply{body: body}
	err := s.Object(func(key []byte) error {
		var err error
		space := false
		switch jsonscan.Field(key, replyFields) {
		case 0:
			reply.responses, space, err = scanArray(&s, s.Skip)
		case 1:
			reply.errors, space, err = scanArray(&s, func() error {
				if null, err := s.Null(); null || err != nil {
					return err
				}
				_, _, err := s.String()
				return err
			})
		default:
			return s.Skip()
		}
		reply.space = reply.space || space
		return err
	})
	if err == nil {
		err = s.End()
	}
	if err != nil {
		return chunkReply{}
	}
	return reply
}

// scanArray reads an array (a null has no elements), checking each
// element with elem, and returns the elements' spans and whether
// whitespace occurs among them.
func scanArray(s *jsonscan.Scanner, elem func() error) ([]span, bool, error) {
	s.Next()
	s.Space = false
	var elems []span
	err := s.Array(func() error {
		start := s.Pos()
		err := elem()
		elems = append(elems, span{start, s.Pos()})
		return err
	})
	return elems, s.Space, err
}

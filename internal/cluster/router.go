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
// client, then hands the response body back to the pool.
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
	obs.Recycle(out.body)
}

// route sends one request to the pool, one attempt at a time on the
// caller's goroutine: the candidates in Ranked order, each tried at most
// once. The first definitive answer is returned; a 429 parks its replica
// and moves on; a transport error or a 5xx fails over to the next. A
// request whose client went away stops where it is — neither failed over
// nor blamed on the replica.
func (rt *Router) route(ctx context.Context, method, path string, body payload) attemptOutcome {
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
func (rt *Router) attempt(ctx context.Context, rep *Replica, method, path string, body payload) attemptOutcome {
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

// exchange is the HTTP round trip of one attempt. The reply body is read
// into a pooled buffer (obs.ReadBody) that the outcome's final holder
// recycles.
func (rt *Router) exchange(ctx context.Context, rep *Replica, method, path string, body payload) attemptOutcome {
	out := attemptOutcome{rep: rep}
	var unleased io.Reader
	if body.data != nil && body.lease == nil {
		unleased = bytes.NewReader(body.data)
	}
	req, err := http.NewRequestWithContext(ctx, method, rep.name+path, unleased)
	if err != nil {
		out.err = err
		return out
	}
	if body.data != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if body.lease != nil {
		req.ContentLength = int64(len(body.data))
		req.Body = body.open()
		// The transport rewinds a request it may resend (a reused
		// connection that died before the request was written).
		req.GetBody = func() (io.ReadCloser, error) { return body.open(), nil }
	}
	tracing.Inject(ctx, req.Header)
	resp, err := rt.client.Do(req)
	if err != nil {
		out.err = err
		return out
	}
	// Bounded tail drain before Close: ReadBody may stop short of EOF
	// (Content-Length fast path, maxBody cap), and an undrained body costs
	// the keep-alive connection on every proxied request.
	defer resilience.DrainClose(resp.Body, 32<<10)
	out.status, out.header = resp.StatusCode, resp.Header
	out.body, out.err = obs.ReadBody(io.LimitReader(resp.Body, maxBody), resp.ContentLength, maxBody)
	return out
}

// readBody reads a request body into a pooled buffer, answering 413 past
// maxBody.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := obs.ReadBody(http.MaxBytesReader(w, r.Body, maxBody), r.ContentLength, maxBody)
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

// A lease is a pooled buffer the router forwards from, shared by the
// handler that filled it and every request body the transport is handed
// over it. The handler holds one reference and each body another, dropped
// when the transport closes it: the RoundTripper contract lets a transport
// read a body after RoundTrip has returned, on a failed or abandoned
// attempt too, and Close is the one point after which it will not. The
// last reference recycles the buffer; a body the transport never closes
// leaves it to the GC.
type lease struct {
	buf  []byte
	refs atomic.Int32
}

func newLease(buf []byte) *lease {
	l := &lease{buf: buf}
	l.refs.Store(1)
	return l
}

// release drops one reference.
func (l *lease) release() {
	if l.refs.Add(-1) == 0 {
		obs.Recycle(l.buf)
	}
}

// payload is one request body the router forwards: data, bytes of the
// lease's buffer, or with no lease bytes the GC reclaims. The zero payload
// is no body.
type payload struct {
	data  []byte
	lease *lease
}

// open returns a fresh reader over the payload that holds a reference to
// its lease until closed.
func (p payload) open() io.ReadCloser {
	p.lease.refs.Add(1)
	return &leasedBody{rest: p.data, lease: p.lease}
}

// leasedBody is one request body over a lease. Read and Close exclude each
// other, so a transport that closes a body while another of its goroutines
// still reads it cannot have the buffer recycled under that read.
type leasedBody struct {
	mu    sync.Mutex
	rest  []byte
	lease *lease // nil once closed
}

func (b *leasedBody) Read(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.lease == nil:
		return 0, http.ErrBodyReadAfterClose
	case len(b.rest) == 0:
		return 0, io.EOF
	}
	n := copy(p, b.rest)
	b.rest = b.rest[n:]
	return n, nil
}

func (b *leasedBody) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.lease != nil {
		b.lease.release()
		b.lease, b.rest = nil, nil
	}
	return nil
}

// handleDiagnose forwards the client's body as it arrived, unleased: a
// leased body is not a bytes.Reader, so net/http would flush the headers
// on their own and copy a one-sample body through a buffer of its size —
// as much allocation as recycling it saves, and a write more. The body is
// left to the GC; the relayed reply goes back to the pool.
func (rt *Router) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	writeUpstream(w, rt.route(r.Context(), http.MethodPost, "/v1/diagnose", payload{data: body}))
}

func (rt *Router) handleModel(w http.ResponseWriter, r *http.Request) {
	writeUpstream(w, rt.route(r.Context(), http.MethodGet, "/v1/model", payload{}))
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
// reply is the replicas' own response and error slots, byte for byte. The
// client's body, the chunks' buffer, every chunk reply and the merged reply
// are pooled; each goes back once the reply is written (the chunks' buffer
// through its lease, when the transport has closed every body over it).
func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	defer obs.Recycle(body)
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
	payloads := obs.Buffer(len(body) + len(parts)*len(requestsOpen+requestsClose))
	chunks := newLease(payloads)
	defer chunks.release()
	failed := make(chan attemptOutcome, len(parts)) // one slot per chunk: a send never blocks
	var wg sync.WaitGroup
	for k := range parts {
		off, end := k*chunk, min((k+1)*chunk, n)
		start := len(payloads)
		payloads = append(payloads, requestsOpen...)
		payloads = appendElements(payloads, body, elems[off:end], space)
		payloads = append(payloads, requestsClose...)
		p := payloads[start:len(payloads):len(payloads)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			if fail := rt.routeChunk(r.Context(), payload{p, chunks}, end-off, &parts[k]); fail != nil {
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
		obs.Recycle(merged)
	}
	for _, p := range parts {
		obs.Recycle(p.body)
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
func (rt *Router) routeChunk(ctx context.Context, body payload, n int, reply *chunkReply) *attemptOutcome {
	out := rt.route(ctx, http.MethodPost, "/v1/diagnose-batch", body)
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
// sent it, into one pooled buffer sized for all of them.
func mergeReplies(parts []chunkReply) []byte {
	size := len(mergedOpen + mergedMiddle + mergedClose)
	for _, p := range parts {
		size += len(p.body)
	}
	out := append(obs.Buffer(size), mergedOpen...)
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

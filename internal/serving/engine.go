package serving

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"diagnet/internal/core"
	"diagnet/internal/tracing"
)

// item is one queued submission.
type item struct {
	ctx   context.Context
	req   *Request
	clock tracing.Clock // the submission's serving.submit run, ended by the submitter
	done  chan outcome  // buffered(1): workers never block on abandoned waiters
}

type outcome struct {
	res *Result
	err error
}

// Engine is the batched inference engine: a bounded submission queue and
// a worker pool (one model replica per worker) whose workers cut their own
// micro-batches out of whatever is queued. See the package comment for the
// policy; see New for lifecycle.
type Engine struct {
	cfg Config
	reg *Registry

	// mu guards queue against send-after-close: enqueue holds it shared for
	// the send, Close holds it exclusively around close(queue).
	mu     sync.RWMutex
	closed bool

	queue    chan *item
	workerWG sync.WaitGroup

	depth        atomic.Int64
	served       atomic.Int64
	shedFull     atomic.Int64
	shedExpired  atomic.Int64
	shedCanceled atomic.Int64
}

// New starts an engine: cfg.Workers workers spin up immediately, but
// submissions fail with ErrNoModel until a version is promoted through
// Registry(). Call Close to drain and stop.
func New(cfg Config) *Engine {
	e := alloc(cfg)
	e.start()
	return e
}

// alloc builds an engine nothing runs on yet: admission works and the queue
// holds what is enqueued until start (tests fill it first, which makes the
// backlog a worker finds exact instead of a race).
func alloc(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	return &Engine{
		cfg:   cfg,
		reg:   NewRegistry(cfg.Workers),
		queue: make(chan *item, cfg.QueueDepth),
	}
}

// start launches the workers.
func (e *Engine) start() {
	for w := 0; w < e.cfg.Workers; w++ {
		e.workerWG.Add(1)
		go e.worker(w)
	}
}

// Registry returns the engine's model registry.
func (e *Engine) Registry() *Registry { return e.reg }

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// Stats returns the admission counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Served:       e.served.Load(),
		ShedFull:     e.shedFull.Load(),
		ShedExpired:  e.shedExpired.Load(),
		ShedCanceled: e.shedCanceled.Load(),
		QueueDepth:   int(e.depth.Load()),
	}
}

// shedDead settles an item whose context died while queued: the caller is
// gone, so the item must not consume a batch slot or reach a model.
// Cancellations and expired deadlines are counted apart — a hedging router
// cancels its losing duplicate on every hedge, so canceled drops are the
// normal currency of tail-latency hedging while expired ones signal real
// overload. Workers call this while forming batches, which is what keeps a
// canceled hedge loser from displacing a live request out of a micro-batch.
func (e *Engine) shedDead(it *item, err error) {
	if errors.Is(err, context.Canceled) {
		e.shedCanceled.Add(1)
		mShedCanceled.Inc()
	} else {
		e.shedExpired.Add(1)
		mShedExpired.Inc()
	}
	it.done <- outcome{err: err}
}

// Submit enqueues one request and waits for its result. Admission is
// non-blocking: a full queue sheds the request immediately with
// ErrQueueFull (HTTP: 429 + Retry-After) instead of building an unbounded
// convoy. The context bounds the whole wait; a request whose context
// expires while queued is dropped before it reaches a model.
func (e *Engine) Submit(ctx context.Context, req *Request) (*Result, error) {
	return e.submit(ctx, req, false)
}

// SubmitWait is Submit with blocking admission: instead of shedding on a
// full queue it waits for space (still bounded by ctx).
func (e *Engine) SubmitWait(ctx context.Context, req *Request) (*Result, error) {
	return e.submit(ctx, req, true)
}

// SubmitAll is the bulk path: it enqueues every request in order with
// blocking admission, on the caller's goroutine, and only then waits for
// the answers — results[i] and errs[i] belong to reqs[i]. Because workers
// cut batches from what is queued, a caller that queues its whole backlog
// before anyone waits is what lets that backlog be served as full fused
// batches; a batch larger than the queue squeezes through it instead of
// shedding itself. Once ctx dies the rest is not enqueued and what is
// already queued is shed as canceled or expired.
func (e *Engine) SubmitAll(ctx context.Context, reqs []*Request) (results []*Result, errs []error) {
	results, errs = make([]*Result, len(reqs)), make([]error, len(reqs))
	items := make([]*item, len(reqs))
	for i, req := range reqs {
		items[i] = newItem(ctx, req)
	}
	// Nothing but the sends between the first item and the last: a worker
	// the first send wakes should find the rest already queued.
	for i, it := range items {
		errs[i] = e.enqueue(ctx, it, true)
	}
	for i, it := range items {
		if errs[i] == nil {
			results[i], errs[i] = await(ctx, it)
		}
		it.finish(errs[i])
	}
	return results, errs
}

// submit is SubmitAll for one request: enqueue, then await.
func (e *Engine) submit(ctx context.Context, req *Request, wait bool) (res *Result, err error) {
	it := newItem(ctx, req)
	if err = e.enqueue(ctx, it, wait); err == nil {
		res, err = await(ctx, it)
	}
	it.finish(err)
	return res, err
}

// newItem opens a submission as a run of the serving.submit stage, which
// lasts from admission to answer: the micro-batch that serves the item is
// a child span of it, or of the batch's first item (serveBatch).
func newItem(ctx context.Context, req *Request) *item {
	clock := tracing.SubmitStage.Start(ctx)
	return &item{ctx: tracing.ContextWithSpan(ctx, clock.Span()), req: req, clock: clock, done: make(chan outcome, 1)}
}

// finish ends the submission's run, its span marked failed by err.
func (it *item) finish(err error) {
	it.clock.Span().SetError(err)
	it.clock.End()
}

// enqueue admits one item into the submission queue — blocking for space
// when wait is set, shedding with ErrQueueFull otherwise.
func (e *Engine) enqueue(ctx context.Context, it *item, wait bool) error {
	if err := e.send(ctx, it, wait); err != nil {
		return err
	}
	e.depth.Add(1)
	mQueueDepth.Set(float64(e.depth.Load()))
	return nil
}

func (e *Engine) send(ctx context.Context, it *item, wait bool) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if e.reg.current() == nil {
		return ErrNoModel
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return ErrClosed
	}
	if wait {
		// Blocking under the read lock is safe: the workers keep draining
		// the queue, so the send always makes progress and Close simply
		// waits its turn behind us.
		select {
		case e.queue <- it:
			return nil
		case <-ctx.Done():
			return ctxErr(ctx)
		}
	}
	select {
	case e.queue <- it:
		return nil
	default:
		e.shedFull.Add(1)
		mShedFull.Inc()
		return ErrQueueFull
	}
}

// await waits for a queued item's outcome, bounded by ctx.
func await(ctx context.Context, it *item) (*Result, error) {
	select {
	case out := <-it.done:
		return out.res, out.err
	case <-ctx.Done():
		// The item stays queued; a worker will notice the dead context and
		// drop it without diagnosing.
		return nil, ctxErr(ctx)
	}
}

// Close stops admission, drains queued and in-flight work, and waits for
// the workers to exit (bounded by ctx). Submissions racing with Close
// either make it into the queue — and are served — or get ErrClosed.
func (e *Engine) Close(ctx context.Context) error {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.queue)
	}
	e.mu.Unlock()

	done := make(chan struct{})
	go func() {
		e.workerWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serving: drain interrupted: %w", ctx.Err())
	}
}

// nextBatch cuts a worker's next micro-batch from the backlog: it blocks
// for one live item, then takes whatever else is queued right now, up to
// BatchMax, and never waits for more. Batches therefore grow with real
// queueing — a lone request on an idle engine is a batch of one, served at
// once — and no timer decides anything. Abandoned items (canceled hedge
// losers, expired deadlines) are settled on the spot: a dead item must not
// seed a batch or occupy a slot. An empty batch means the queue is closed
// and drained.
func (e *Engine) nextBatch() []*item {
	batch := make([]*item, 0, e.cfg.BatchMax)
	for len(batch) < e.cfg.BatchMax {
		var it *item
		var ok bool
		if len(batch) == 0 {
			it, ok = <-e.queue
		} else {
			select {
			case it, ok = <-e.queue:
			default:
				return batch
			}
		}
		if !ok {
			return batch
		}
		e.depth.Add(-1)
		if err := it.ctx.Err(); err != nil {
			e.shedDead(it, err)
			continue
		}
		batch = append(batch, it)
	}
	return batch
}

// worker cuts micro-batches from the queue and executes them until the
// queue is closed and drained. Each batch is served by exactly one registry
// snapshot (one atomic load), so responses are attributable to exactly one
// model version even while a promotion swaps the pointer mid-stream, and by
// one call of the worker's bundle session: whatever services and layouts
// the batch mixes, its rows share one pass through the trunk (DESIGN.md
// §8).
func (e *Engine) worker(id int) {
	defer e.workerWG.Done()
	for {
		batch := e.nextBatch()
		if len(batch) == 0 {
			return
		}
		mQueueDepth.Set(float64(e.depth.Load()))
		mBatchSize.Observe(float64(len(batch)))
		e.serveBatch(e.reg.current(), id, batch)
	}
}

// serveBatch diagnoses the live items of a micro-batch in one session call,
// recovering a panicking model into per-item errors instead of killing the
// worker.
//
// Trace topology: the "serving.batch" span is a child of the first live
// member's serving.submit span (so a lone request gets the full route →
// submit → batch → core.session_diagnose nesting), and cross-links tie the
// fusion together — the batch span links to every member's submit span,
// and every other member's submit span links back to the batch span that
// served it, so a member's trace still reaches the shared inference work
// even though that work was recorded under the lead's trace.
func (e *Engine) serveBatch(snap *snapshot, worker int, batch []*item) {
	live := batch[:0]
	for _, it := range batch {
		// Deadline-aware shedding: a request that died between batch
		// formation and pickup is dropped here, before any model work.
		if err := it.ctx.Err(); err != nil {
			e.shedDead(it, err)
			continue
		}
		if snap == nil {
			it.done <- outcome{err: ErrNoModel}
			continue
		}
		live = append(live, it)
	}
	if len(live) == 0 {
		return
	}
	sess := snap.sessions[worker]
	lead := live[0]
	bctx, bspan := tracing.StartSpan(lead.ctx, "serving.batch")
	bspan.SetAttr("batch.size", len(live))
	bspan.SetAttr("model.version", snap.version)
	bspan.SetAttr("worker", worker)
	bref := bspan.Context()
	rows := make([]core.Row, len(live))
	for k, it := range live {
		bspan.Link(it.clock.Span().Context())
		if it != lead {
			it.clock.Span().Link(bref)
		}
		rows[k] = core.Row{Service: it.req.ServiceID, Layout: it.req.Layout, Features: it.req.Features}
	}
	defer func() {
		if rec := recover(); rec != nil {
			mPanics.Inc()
			err := fmt.Errorf("serving: model panic: %v", rec)
			bspan.SetError(err)
			bspan.End()
			for _, it := range live {
				select {
				case it.done <- outcome{err: err}:
				default: // already answered before the panic
				}
			}
		}
	}()
	diags := sess.DiagnoseRows(bctx, rows)
	bspan.End()
	for _, n := range sess.Passes() {
		mPassRows.Observe(float64(n))
	}
	for k, it := range live {
		e.served.Add(1)
		mServed.Inc()
		_, svc := sess.ModelFor(it.req.ServiceID)
		it.done <- outcome{res: &Result{
			Diagnosis:    diags[k],
			ModelService: svc,
			Version:      snap.version,
		}}
	}
}

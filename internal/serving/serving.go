// Package serving is DiagNet's inference serving engine: the subsystem
// between the analysis plane's HTTP handlers and the model core that makes
// "every QoE degradation from every client becomes a diagnosis request"
// sustainable (§II, Fig. 1 scale-out).
//
// It has three pillars:
//
//   - Micro-batching from backlog. Diagnose submissions land in a bounded
//     queue; a free worker blocks for one, then takes whatever else is
//     queued at that moment, up to BatchMax. Nothing waits on a timer: a
//     lone request on an idle engine is a batch of one served at once, and
//     batches grow exactly as fast as requests queue behind busy workers.
//     Bulk callers enqueue their whole backlog before waiting (SubmitAll),
//     so it is there to be taken whole. Each worker diagnoses a batch with
//     one call of its bundle session (core.Session.DiagnoseRows): whatever
//     services and layouts the batch mixes, its rows share one
//     forward/backward pass through the trunk every model of the version
//     aliases, so the weights are streamed once per batch instead of once
//     per request or per service.
//
//   - Versioned model registry. Named model versions (general + per-service
//     specialized bundles) are loaded from disk or memory, warmed up with a
//     real inference through every model on each worker's session
//     (sessions share the version's one copy of the weights), and promoted
//     by an atomic pointer swap — the deployment path for §VI
//     drift-triggered retrains and service specialization. Every response is attributable to exactly
//     one version; rollback re-promotes the previous one.
//
//   - Admission control. The queue is bounded: overflow is shed
//     immediately (the analysis plane maps it to 429 + Retry-After),
//     requests whose deadline expired while queued are dropped before
//     wasting a worker, and Close drains in-flight work before returning.
package serving

import (
	"context"
	"errors"
	"runtime"
	"time"

	"diagnet/internal/core"
	"diagnet/internal/probe"
)

// DrainTimeout is the default bound on a graceful drain: long enough to
// finish any queued micro-batches, short enough that shutdown never hangs
// on a wedged worker.
const DrainTimeout = 15 * time.Second

// Sentinel errors of the admission path.
var (
	// ErrQueueFull reports that the submission queue is at capacity; the
	// caller should back off and retry (HTTP: 429 + Retry-After).
	ErrQueueFull = errors.New("serving: submission queue full")
	// ErrClosed reports a submission to a draining or closed engine.
	ErrClosed = errors.New("serving: engine closed")
	// ErrNoModel reports that no model version has been promoted yet.
	ErrNoModel = errors.New("serving: no active model version")
)

// Config tunes the engine. The zero value selects the documented defaults.
type Config struct {
	// BatchMax is the micro-batch size cap (default 32).
	BatchMax int
	// BatchWait has no effect: batches are cut from the backlog, never
	// held open on a timer. The field is declared only because
	// bench/stack.go, frozen until ROADMAP item 1, names it in a literal;
	// that item deletes both.
	BatchWait time.Duration
	// QueueDepth bounds the submission queue; non-blocking submissions
	// beyond it are shed (default 256).
	QueueDepth int
	// Workers sizes the worker pool and the per-version session set
	// (default GOMAXPROCS).
	Workers int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.BatchMax <= 0 {
		c.BatchMax = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// Request is one diagnosis submission. Features must match the layout and
// both are read but never mutated by the engine; validation against the
// model's deployment layout is the caller's job (invalid requests should
// never spend a queue slot).
type Request struct {
	// ServiceID selects a specialized model; -1 or unknown IDs fall back
	// to the general model.
	ServiceID int
	// Landmarks is the probed landmark layout of the feature vector.
	Layout probe.Layout
	// Features is the raw measurement vector under Layout.
	Features []float64
}

// Result is a completed diagnosis plus its provenance: which model version
// and which concrete model (general or specialized) produced it.
type Result struct {
	Diagnosis *core.Diagnosis
	// ModelService is the specialized service that served the request, or
	// -1 for the general model.
	ModelService int
	// Version names the registry version the diagnosis came from. A batch
	// is served by exactly one snapshot, so mixed-version responses cannot
	// happen even mid-swap.
	Version string
}

// Stats is a point-in-time view of the engine's admission counters.
type Stats struct {
	Served   int64 `json:"served"`
	ShedFull int64 `json:"shed_queue_full"`
	// ShedExpired counts requests whose deadline ran out while queued —
	// an overload symptom.
	ShedExpired int64 `json:"shed_expired"`
	// ShedCanceled counts requests whose caller canceled while queued —
	// the normal fate of a hedged duplicate whose twin answered first.
	// Counted apart from ShedExpired so hedging does not masquerade as
	// overload.
	ShedCanceled int64 `json:"shed_canceled"`
	QueueDepth   int   `json:"queue_depth"`
}

// ctxErr maps a context error, defaulting to ctx.Err().
func ctxErr(ctx context.Context) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return context.Canceled
}

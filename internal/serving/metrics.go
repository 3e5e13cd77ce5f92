package serving

import "diagnet/internal/telemetry"

// Serving-plane metrics (DESIGN.md §11): queue pressure, batching shape
// (what a worker cut from the backlog, serving.batch.size, and what one pass
// actually fused of it, serving.pass.rows), shedding and model lifecycle.
// Resolved once at init so the hot path pays only atomic operations; GET
// /v1/metrics exposes them alongside the rest of the registry.
var (
	mQueueDepth   = telemetry.Default().Gauge("serving.queue.depth")
	mBatchSize    = telemetry.Default().Histogram("serving.batch.size", telemetry.SizeBuckets)
	mPassRows     = telemetry.Default().Histogram("serving.pass.rows", telemetry.SizeBuckets)
	mServed       = telemetry.Default().Counter("serving.requests.served")
	mShedFull     = telemetry.Default().Counter("serving.shed.queue_full")
	mShedExpired  = telemetry.Default().Counter("serving.shed.expired")
	mShedCanceled = telemetry.Default().Counter("serving.shed.canceled")
	mPanics       = telemetry.Default().Counter("serving.worker.panics")
	mSwaps        = telemetry.Default().Counter("serving.model.swaps")
	mWarmups      = telemetry.Default().Counter("serving.model.warmups")

	// State-plane recovery (DESIGN.md §13): lifecycle records replayed
	// from the journal at boot, and successful active-version recoveries.
	mStateReplayed  = telemetry.Default().Counter("serving.state.records_replayed")
	mStateRecovered = telemetry.Default().Counter("serving.state.recovered")
)

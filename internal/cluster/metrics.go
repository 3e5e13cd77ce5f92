package cluster

import "diagnet/internal/telemetry"

// Router-plane metrics (DESIGN.md §14): hedging economics, failover and
// backpressure volume, replica health churn, and per-attempt latency.
// Resolved once at init; the hot path pays only atomic operations.
var (
	mHedges             = telemetry.Default().Counter("router.hedge.fired")
	mHedgeWins          = telemetry.Default().Counter("router.hedge.wins")
	mLosersCanceled     = telemetry.Default().Counter("router.hedge.losers_canceled")
	mFailovers          = telemetry.Default().Counter("router.failover")
	mBackpressure       = telemetry.Default().Counter("router.backpressure.replica_loaded")
	mHealthUp           = telemetry.Default().Counter("router.replica.health_up")
	mHealthDown         = telemetry.Default().Counter("router.replica.health_down")
	mBreakerTransitions = telemetry.Default().Counter("router.replica.breaker_transitions")
	mAttemptLatency     = telemetry.Default().Histogram("router.attempt.latency_ms", nil)
	mScatterChunks      = telemetry.Default().Histogram("router.scatter.chunks", telemetry.SizeBuckets)
)

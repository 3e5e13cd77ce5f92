package cluster

import (
	"diagnet/internal/telemetry"
	"diagnet/internal/tracing"
)

// Router-plane metrics (DESIGN.md §14): failover and backpressure volume,
// replica health churn, and the router.attempt stage — one span and one
// router.attempt.latency_ms histogram per replica attempt. Resolved once
// at init; the hot path pays only atomic operations.
var (
	mFailovers          = telemetry.Default().Counter("router.failover")
	mBackpressure       = telemetry.Default().Counter("router.backpressure.replica_loaded")
	mHealthUp           = telemetry.Default().Counter("router.replica.health_up")
	mHealthDown         = telemetry.Default().Counter("router.replica.health_down")
	mBreakerTransitions = telemetry.Default().Counter("router.replica.breaker_transitions")
	stAttempt           = tracing.NewStage(telemetry.Default(), "router.attempt")
	mScatterChunks      = telemetry.Default().Histogram("router.scatter.chunks", telemetry.SizeBuckets)
)

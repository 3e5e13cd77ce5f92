package continual

import "diagnet/internal/telemetry"

// Continual-learning metrics (DESIGN.md §15). Counters follow the loop's
// life events; gauges expose the instantaneous loop and buffer state so
// GET /v1/metrics shows where the plane is without hitting /v1/continual.
var (
	mIngested     = telemetry.Default().Counter("continual.samples.ingested")
	mIngestDrop   = telemetry.Default().Counter("continual.samples.rejected")
	mStoreSize    = telemetry.Default().Gauge("continual.store.samples")
	mCompactions  = telemetry.Default().Counter("continual.store.compactions")
	mCycles       = telemetry.Default().Counter("continual.cycles")
	mPromotions   = telemetry.Default().Counter("continual.promotions")
	mRejections   = telemetry.Default().Counter("continual.rejections")
	mRollbacks    = telemetry.Default().Counter("continual.rollbacks")
	mTrainPauses  = telemetry.Default().Counter("continual.trainer.pauses")
	mTrainResumes = telemetry.Default().Counter("continual.trainer.resumes")
	mTrainEpochs  = telemetry.Default().Counter("continual.trainer.epochs")
	mState        = telemetry.Default().Gauge("continual.state")
)

// The drift trigger's verdict, written every tick: the gauges mirror its
// latest Status and drift.signals counts its stable→drifted edges. The
// post-promotion watchdog publishes nothing here.
var (
	mDriftPSI         = telemetry.Default().Gauge("drift.psi")
	mDriftConfDelta   = telemetry.Default().Gauge("drift.confidence_delta")
	mDriftSamplesLive = telemetry.Default().Gauge("drift.samples_live")
	mDriftSamplesRef  = telemetry.Default().Gauge("drift.samples_ref")
	mDrifted          = telemetry.Default().Gauge("drift.drifted")
	mDriftSignals     = telemetry.Default().Counter("drift.signals")
)

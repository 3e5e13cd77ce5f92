package serving

import (
	"context"
	"math"
	"time"

	"diagnet/internal/core"
	"diagnet/internal/telemetry"
)

// Shadow tee: when a candidate version is installed in the registry
// (Registry.InstallShadow) and a tee fraction is set, a sampled share of
// already-answered requests is replayed through the candidate on a
// dedicated executor goroutine. The tee runs strictly after the real
// response has been settled — the serving path only pays one atomic load
// and, for sampled batches, a non-blocking channel send — so a slow or
// broken candidate can never add client latency. A full tee queue drops
// the sample (counted), it never backpressures.

// ShadowObservation is one request's incumbent-vs-candidate comparison,
// delivered to the observer installed with SetShadowObserver.
type ShadowObservation struct {
	// ServiceID is the request's service.
	ServiceID int
	// IncumbentVersion / ShadowVersion name the two models compared.
	IncumbentVersion string
	ShadowVersion    string
	// Incumbent and Shadow are the two coarse distributions.
	Incumbent []float64
	Shadow    []float64
	// Agree reports whether both models picked the same coarse class.
	Agree bool
	// IncumbentLatency and ShadowLatency are per-sample shares of the
	// fused pass each model ran the sample in (batch time / batch size) —
	// the quantity the promotion gate's latency criterion compares.
	IncumbentLatency time.Duration
	ShadowLatency    time.Duration
}

// shadowJob replays one served micro-batch through the candidate.
type shadowJob struct {
	snap       *snapshot // candidate snapshot pinned at tee time
	incVersion string
	rows       []core.Row
	incCoarse  [][]float64
	incPerItem time.Duration
}

// SetShadowTee sets the fraction of served requests teed through the
// shadow candidate (0 disables, 1 tees everything). Safe under live
// traffic.
func (e *Engine) SetShadowTee(fraction float64) {
	if fraction < 0 {
		fraction = 0
	}
	if fraction > 1 {
		fraction = 1
	}
	e.teeFracBits.Store(math.Float64bits(fraction))
}

// ShadowTee returns the current tee fraction.
func (e *Engine) ShadowTee() float64 {
	return math.Float64frombits(e.teeFracBits.Load())
}

// SetShadowObserver installs the callback receiving one ShadowObservation
// per teed request. The callback runs on the shadow executor goroutine —
// keep it cheap or hand off.
func (e *Engine) SetShadowObserver(fn func(ShadowObservation)) {
	if fn == nil {
		e.observer.Store((*func(ShadowObservation))(nil))
		return
	}
	e.observer.Store(&fn)
}

// maybeTee samples a served micro-batch into the shadow queue. Called by
// serveBatch after every member's outcome has been delivered; rows is the
// batch's own slice, which the worker does not touch again.
func (e *Engine) maybeTee(rows []core.Row, diags []*core.Diagnosis, incVersion string, incDur time.Duration) {
	frac := e.ShadowTee()
	if frac <= 0 {
		return
	}
	snap := e.reg.shadow()
	if snap == nil {
		return
	}
	n := int64(len(rows))
	seen := e.teeSeen.Add(n)
	// Threshold sampling at batch granularity: tee while the running
	// teed/seen ratio is below the target fraction. Deterministic, cheap,
	// and converges to the fraction without per-item RNG.
	if float64(e.teeSent.Load()+n)/float64(seen) > frac && frac < 1 {
		return
	}
	job := &shadowJob{
		snap:       snap,
		incVersion: incVersion,
		rows:       rows,
		incCoarse:  make([][]float64, len(rows)),
		incPerItem: incDur / time.Duration(len(rows)),
	}
	for k, d := range diags {
		job.incCoarse[k] = d.Coarse
	}
	select {
	case e.shadowCh <- job:
		e.teeSent.Add(n)
		e.shadowTeed.Add(n)
		mShadowTeed.Add(n)
	default:
		e.shadowDropped.Add(n)
		mShadowDropped.Add(n)
	}
}

// shadowWorker drains the tee queue: each job is replayed through the
// candidate's single session with the same one-call pass the serving
// workers use (the candidate may specialize services the incumbent served
// generally; its session resolves that), and the observer receives one
// observation per sample.
func (e *Engine) shadowWorker() {
	defer e.shadowWG.Done()
	for job := range e.shadowCh {
		e.runShadowJob(job)
	}
}

func (e *Engine) runShadowJob(job *shadowJob) {
	defer func() {
		if rec := recover(); rec != nil {
			// A broken candidate must not kill the executor — the gate
			// will see zero observations and refuse to promote.
			mShadowPanics.Inc()
		}
	}()
	start := time.Now()
	diags := job.snap.sessions[0].DiagnoseRows(context.Background(), job.rows)
	dur := time.Since(start)
	mShadowInferMs.Observe(telemetry.Millis(dur))
	obs := e.observerFn()
	if obs == nil {
		return
	}
	per := dur / time.Duration(len(job.rows))
	for k, d := range diags {
		inc := job.incCoarse[k]
		obs(ShadowObservation{
			ServiceID:        job.rows[k].Service,
			IncumbentVersion: job.incVersion,
			ShadowVersion:    job.snap.version,
			Incumbent:        inc,
			Shadow:           d.Coarse,
			Agree:            argmax(inc) == argmax(d.Coarse),
			IncumbentLatency: job.incPerItem,
			ShadowLatency:    per,
		})
	}
}

// observerFn loads the installed observer (nil when none).
func (e *Engine) observerFn() func(ShadowObservation) {
	if p := e.observer.Load(); p != nil {
		if fn := *p; fn != nil {
			return fn
		}
	}
	return nil
}

// argmax returns the index of the largest element.
func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// shadowStats returns (teed, dropped).
func (e *Engine) shadowStats() (int64, int64) {
	return e.shadowTeed.Load(), e.shadowDropped.Load()
}

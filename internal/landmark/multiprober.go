package landmark

import (
	"context"
	"fmt"
	"sync"
	"time"

	"diagnet/internal/resilience"
	"diagnet/internal/telemetry"
	"diagnet/internal/tracing"
)

// Probing-plane metrics (DESIGN.md §10): round and landmark counters plus
// circuit-breaker state transitions, shared by every MultiProber in the
// process.
var (
	mRounds         = telemetry.Default().Counter("probe.rounds")
	mRoundsDegraded = telemetry.Default().Counter("probe.rounds_degraded")
	stRound         = tracing.NewStage(telemetry.Default(), "probe.round")
	mLandmarkMs     = telemetry.Default().Histogram("probe.landmark_ms", nil)
	mProbeSuccesses = telemetry.Default().Counter("probe.landmark.successes")
	mProbeFailures  = telemetry.Default().Counter("probe.landmark.failures")
	mProbeSkips     = telemetry.Default().Counter("probe.landmark.skips")
	mBreakerOpened  = telemetry.Default().Counter("probe.breaker.opened")
	mBreakerHalf    = telemetry.Default().Counter("probe.breaker.half_open")
	mBreakerClosed  = telemetry.Default().Counter("probe.breaker.closed")
)

// countTransition feeds breaker state changes into the transition counters.
func countTransition(_, to resilience.BreakerState) {
	switch to {
	case resilience.Open:
		mBreakerOpened.Inc()
	case resilience.HalfOpen:
		mBreakerHalf.Inc()
	case resilience.Closed:
		mBreakerClosed.Inc()
	}
}

// MultiProberConfig tunes the fault-tolerant multi-landmark prober.
type MultiProberConfig struct {
	// Prober configures the underlying single-landmark prober.
	Prober ProberConfig
	// MaxConcurrent bounds the worker pool probing landmarks in parallel
	// (default 4).
	MaxConcurrent int
	// RoundTimeout caps one ProbeAll round across all landmarks
	// (default 60s).
	RoundTimeout time.Duration
	// Retry is applied per landmark around the full probe (default:
	// 2 attempts — probes are expensive, one retry covers blips).
	Retry resilience.RetryPolicy
	// Breaker configures the per-landmark circuit breakers (default:
	// 3 consecutive failures open; 30s cooldown).
	Breaker resilience.BreakerConfig
	// PingTimeout caps the cheap half-open recovery ping (default 5s).
	PingTimeout time.Duration
}

func (c MultiProberConfig) withDefaults() MultiProberConfig {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = 4
	}
	if c.RoundTimeout <= 0 {
		c.RoundTimeout = 60 * time.Second
	}
	if c.Retry.MaxAttempts <= 0 {
		c.Retry.MaxAttempts = 2
	}
	if c.PingTimeout <= 0 {
		c.PingTimeout = 5 * time.Second
	}
	return c
}

// ProbeResult is the outcome of one landmark in a probing round.
type ProbeResult struct {
	URL         string
	Index       int // position in the ProbeAll input slice
	Measurement Measurement
	Err         error // nil on success
	Skipped     bool  // circuit open: no full probe was attempted
	Attempts    int   // full-probe attempts (0 when skipped)
	Elapsed     time.Duration
}

// OK reports whether the landmark yielded a usable measurement.
func (r ProbeResult) OK() bool { return r.Err == nil && !r.Skipped }

// LandmarkHealth is a snapshot of one landmark's probing history.
type LandmarkHealth struct {
	State               string    `json:"state"` // closed | open | half-open
	ConsecutiveFailures int       `json:"consecutive_failures"`
	EWMALatencyMs       float64   `json:"ewma_latency_ms"` // full-probe wall time
	Probes              int64     `json:"probes"`          // full probes attempted
	Successes           int64     `json:"successes"`
	Skips               int64     `json:"skips"` // rounds skipped by an open circuit
	LastError           string    `json:"last_error,omitempty"`
	LastSuccess         time.Time `json:"last_success"`
}

// landmarkState is the per-landmark mutable record.
type landmarkState struct {
	breaker *resilience.Breaker
	latency *resilience.EWMA

	mu          sync.Mutex
	probes      int64
	successes   int64
	skips       int64
	lastError   string
	lastSuccess time.Time
}

// MultiProber probes many landmarks concurrently and keeps per-landmark
// health: retries with backoff inside a round, circuit breakers across
// rounds, and partial results when some landmarks are down — the live
// counterpart of the model's ZeroMask extensibility (§IV-B-a). Safe for
// concurrent use.
type MultiProber struct {
	prober *Prober
	cfg    MultiProberConfig

	mu     sync.Mutex
	states map[string]*landmarkState
}

// NewMultiProber returns a fault-tolerant prober over the given config.
func NewMultiProber(cfg MultiProberConfig) *MultiProber {
	cfg = cfg.withDefaults()
	return &MultiProber{
		prober: NewProber(cfg.Prober),
		cfg:    cfg,
		states: map[string]*landmarkState{},
	}
}

// state returns (creating if needed) the record for a landmark URL.
func (mp *MultiProber) state(url string) *landmarkState {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	st, ok := mp.states[url]
	if !ok {
		bcfg := mp.cfg.Breaker
		if bcfg.OnTransition == nil {
			bcfg.OnTransition = countTransition
		}
		st = &landmarkState{
			breaker: resilience.NewBreaker(bcfg),
			latency: resilience.NewEWMA(0.3),
		}
		mp.states[url] = st
	}
	return st
}

// ProbeAll probes every URL concurrently within a bounded worker pool and
// a round deadline. It returns one ProbeResult per input URL (same order)
// and partial=true when at least one landmark did not yield a measurement
// — the caller should then issue a degraded-mode diagnosis from the
// surviving subset.
func (mp *MultiProber) ProbeAll(ctx context.Context, urls []string) ([]ProbeResult, bool) {
	ctx, cancel := context.WithTimeout(ctx, mp.cfg.RoundTimeout)
	defer cancel()
	ctx, clock := stRound.Root(ctx)
	span := clock.Span()
	span.SetAttr("landmarks", len(urls))
	mRounds.Inc()

	results := make([]ProbeResult, len(urls))
	sem := make(chan struct{}, mp.cfg.MaxConcurrent)
	var wg sync.WaitGroup
	for i, url := range urls {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = mp.probeOne(ctx, i, url)
		}(i, url)
	}
	wg.Wait()

	partial := false
	for i := range results {
		if !results[i].OK() {
			partial = true
			break
		}
	}
	if partial {
		mRoundsDegraded.Inc()
	}
	span.SetAttr("partial", partial)
	clock.End()
	return results, partial
}

// probeOne runs the breaker + retry pipeline for a single landmark,
// recording it as a "probe.landmark" child span of the round: attempts,
// breaker state and skip/error outcomes all land on the span, so a
// degraded round's trace shows exactly which landmark burned the time.
func (mp *MultiProber) probeOne(ctx context.Context, index int, url string) (res ProbeResult) {
	res = ProbeResult{URL: url, Index: index}
	st := mp.state(url)

	_, span := tracing.StartSpan(ctx, "probe.landmark")
	span.SetAttr("url", url)
	defer func() {
		span.SetAttr("attempts", res.Attempts)
		span.SetAttr("skipped", res.Skipped)
		span.SetError(res.Err)
		span.End()
	}()

	state, allowed := st.breaker.Allow()
	span.SetAttr("breaker", state.String())
	if !allowed {
		res.Skipped = true
		res.Err = fmt.Errorf("landmark %s: %w (state %s)", url, resilience.ErrCircuitOpen, state)
		st.recordSkip()
		mProbeSkips.Inc()
		return res
	}
	if state == resilience.HalfOpen {
		// Probe-through recovery: one cheap ping decides instead of a
		// full multi-MiB probe. Only a responsive landmark graduates to
		// the full measurement below.
		pingCtx, cancel := context.WithTimeout(ctx, mp.cfg.PingTimeout)
		err := mp.prober.ping(pingCtx, url)
		cancel()
		if err != nil {
			st.breaker.Failure()
			res.Skipped = true
			res.Err = fmt.Errorf("landmark %s: half-open ping failed: %w", url, err)
			st.recordFailure(res.Err)
			mProbeFailures.Inc()
			return res
		}
		st.breaker.Success()
	}

	start := time.Now()
	var m Measurement
	err, attempts := mp.cfg.Retry.DoCount(ctx, func(ctx context.Context) error {
		var probeErr error
		m, probeErr = mp.prober.Probe(ctx, url)
		return probeErr
	})
	res.Elapsed = time.Since(start)
	res.Attempts = attempts
	st.recordProbe()
	if err != nil {
		st.breaker.Failure()
		res.Err = fmt.Errorf("landmark %s: %w", url, err)
		st.recordFailure(res.Err)
		mProbeFailures.Inc()
		return res
	}
	st.breaker.Success()
	st.latency.Observe(float64(res.Elapsed.Milliseconds()))
	st.recordSuccess()
	mProbeSuccesses.Inc()
	mLandmarkMs.Observe(telemetry.Millis(res.Elapsed))
	res.Measurement = m
	return res
}

func (s *landmarkState) recordProbe() {
	s.mu.Lock()
	s.probes++
	s.mu.Unlock()
}

func (s *landmarkState) recordSuccess() {
	s.mu.Lock()
	s.successes++
	s.lastSuccess = time.Now()
	s.lastError = ""
	s.mu.Unlock()
}

func (s *landmarkState) recordFailure(err error) {
	s.mu.Lock()
	s.lastError = err.Error()
	s.mu.Unlock()
}

func (s *landmarkState) recordSkip() {
	s.mu.Lock()
	s.skips++
	s.mu.Unlock()
}

// Health snapshots every known landmark's probing record, keyed by URL.
func (mp *MultiProber) Health() map[string]LandmarkHealth {
	mp.mu.Lock()
	states := make(map[string]*landmarkState, len(mp.states))
	for url, st := range mp.states {
		states[url] = st
	}
	mp.mu.Unlock()

	out := make(map[string]LandmarkHealth, len(states))
	for url, st := range states {
		st.mu.Lock()
		h := LandmarkHealth{
			State:               st.breaker.State().String(),
			ConsecutiveFailures: st.breaker.ConsecutiveFailures(),
			EWMALatencyMs:       st.latency.Value(),
			Probes:              st.probes,
			Successes:           st.successes,
			Skips:               st.skips,
			LastError:           st.lastError,
			LastSuccess:         st.lastSuccess,
		}
		st.mu.Unlock()
		out[url] = h
	}
	return out
}

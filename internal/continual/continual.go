package continual

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"

	"diagnet/internal/core"
	"diagnet/internal/drift"
	"diagnet/internal/durable"
	"diagnet/internal/probe"
	"diagnet/internal/serving"
	"diagnet/internal/tracing"
)

// State names one phase of the continual-learning loop.
type State string

const (
	// StateIdle: no live samples buffered yet.
	StateIdle State = "idle"
	// StateCollecting: buffering live samples, waiting for a trigger.
	StateCollecting State = "collecting"
	// StateTraining: a background retrain is running.
	StateTraining State = "training"
	// StateShadowing: served requests are replayed through the incumbent
	// and the candidate.
	StateShadowing State = "shadowing"
	// StatePromoting: the candidate was hot-swapped in and is under the
	// post-promotion regression watchdog.
	StatePromoting State = "promoting"
	// StateRolledBack: the watchdog detected a regression and restored
	// the previous version.
	StateRolledBack State = "rolled-back"
)

// stateCode maps states to the continual.state gauge.
var stateCode = map[State]float64{
	StateIdle: 0, StateCollecting: 1, StateTraining: 2,
	StateShadowing: 3, StatePromoting: 4, StateRolledBack: 5,
}

// Transition is one journaled state change.
type Transition struct {
	Time    time.Time `json:"time"`
	From    State     `json:"from"`
	To      State     `json:"to"`
	Reason  string    `json:"reason"`
	Cycle   int       `json:"cycle"`
	Version string    `json:"version,omitempty"`
}

// keepTransitions bounds the in-memory transition tail served by Status.
const keepTransitions = 32

// holdoutFrac of labeled samples is withheld for the gate's accuracy proxy.
const holdoutFrac = 0.2

// Config wires a Controller to the serving plane.
type Config struct {
	// Engine is the serving engine whose registry holds the incumbent and
	// receives promoted candidates.
	Engine *serving.Engine
	// Store buffers live samples.
	Store *SampleStore
	// Trainer runs the background retrains (ignored when TrainFunc set).
	Trainer *Trainer
	// Gate holds the promotion criteria.
	Gate GateConfig
	// ShadowTimeout bounds the shadowing phase; a candidate that has not
	// been compared on MinShadowSamples served requests by then faces the
	// gate with what it has (default 2m).
	ShadowTimeout time.Duration
	// RetrainInterval triggers a cycle on a timer (0 disables; drift and
	// manual triggers still work).
	RetrainInterval time.Duration
	// CheckInterval is the control-loop tick (default 1s).
	CheckInterval time.Duration
	// MinSamples is the least buffered samples before any cycle starts
	// (default 256).
	MinSamples int
	// WatchWindow is how long the regression watchdog runs after a
	// promotion (default 2m).
	WatchWindow time.Duration
	// WatchWindowSize is the watchdog detector's live window (default 64).
	WatchWindowSize int
	// WatchPSI is the watchdog's rollback threshold: how far the promoted
	// model's live prediction distribution may stray from its own vetted
	// shadow-phase behavior (default 0.25). Small windows are noisy —
	// raise this when WatchWindowSize is small relative to the class
	// count.
	WatchPSI float64
	// StateDir, when set, journals state transitions through
	// internal/durable; the cycle counter survives restarts so candidate
	// version names never collide.
	StateDir string
	// Fsync selects the transition journal's durability (zero is
	// FsyncAlways).
	Fsync durable.FsyncPolicy
	// Seed drives export splits and the evaluator reservoir (default 1).
	Seed int64
	// TrainFunc overrides the trainer (tests). It must return a candidate
	// bundle ready for the registry.
	TrainFunc func(ctx context.Context) (*TrainOutcome, error)
	// Now supplies the clock (default time.Now).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.ShadowTimeout <= 0 {
		c.ShadowTimeout = 2 * time.Minute
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = time.Second
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 256
	}
	if c.WatchWindow <= 0 {
		c.WatchWindow = 2 * time.Minute
	}
	if c.WatchWindowSize <= 0 {
		c.WatchWindowSize = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// TrainSummary is the Status view of the last finished retrain.
type TrainSummary struct {
	Epochs           int     `json:"epochs"`
	Resumed          bool    `json:"resumed,omitempty"`
	Specialized      []int   `json:"specialized,omitempty"`
	HoldoutSamples   int     `json:"holdout_samples"`
	HoldoutIncumbent float64 `json:"holdout_incumbent"`
	HoldoutCandidate float64 `json:"holdout_candidate"`
}

// Status is the control surface served at GET /v1/continual.
type Status struct {
	State        State          `json:"state"`
	Cycle        int            `json:"cycle"`
	StoreSamples int            `json:"store_samples"`
	StoreLabeled int            `json:"store_labeled"`
	StoreSeen    int64          `json:"store_seen"`
	Strata       int            `json:"strata"`
	Candidate    string         `json:"candidate,omitempty"`
	LastTrain    *TrainSummary  `json:"last_train,omitempty"`
	LastShadow   *ShadowSummary `json:"last_shadow,omitempty"`
	LastDecision *Decision      `json:"last_decision,omitempty"`
	LastError    string         `json:"last_error,omitempty"`
	WatchUntil   time.Time      `json:"watch_until,omitempty"`
	Transitions  []Transition   `json:"transitions,omitempty"`
}

// replayQueue bounds the served requests waiting while the shadow phase
// is busy with a pass: a few passes' worth (replayBatch rows each), since
// the phase drains it continuously, needs only MinShadowSamples requests
// in all, and a request that finds it full is simply not replayed.
const (
	replayQueue = 256
	replayBatch = 32
)

// Controller runs the closed loop: trigger → train → shadow → gate →
// promote/rollback. One goroutine owns the cycle; triggers are
// level-checked on a ticker so concurrent cycles are impossible by
// construction.
type Controller struct {
	cfg  Config
	gate GateConfig
	jn   *durable.Journal

	mu           sync.Mutex
	state        State
	cycle        int
	candidate    string
	lastTrain    *TrainSummary
	lastShadow   *ShadowSummary
	lastDecision *Decision
	lastErr      string
	lastCycleEnd time.Time
	watchUntil   time.Time
	transitions  []Transition

	// detMu guards both drift detectors, which the serving tap feeds from
	// request goroutines. driftTrigger is the retrain trigger: it watches
	// every served diagnosis, freezes its reference on its first full
	// window and re-baselines after each promotion. watchdog is the
	// post-promotion regression check, nil outside a watch window.
	detMu        sync.Mutex
	driftTrigger *drift.Detector
	watchdog     *drift.Detector
	// wasDrifted is the trigger's verdict at the previous tick, so
	// drift.signals counts each stable→drifted edge once. Loop goroutine
	// only.
	wasDrifted bool

	// replay is the queue the serving tap hands served requests to while a
	// candidate shadows, and nil otherwise: each shadow phase drains a
	// queue of its own, so one never sees another's requests.
	replay atomic.Pointer[chan core.Row]

	trigger chan string
	ctx     context.Context // the loop's, canceled by stop
	stop    func()          // cancels the loop and awaits it; nil until Start
	stopped bool            // Close ran: the journal is gone, Start must stay a no-op
}

// NewController builds a Controller, replaying the transition journal in
// cfg.StateDir when one exists (restores the cycle counter and the recent
// transition tail; the runtime state always restarts at idle).
func NewController(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if cfg.Engine == nil {
		return nil, errors.New("continual: controller needs an engine")
	}
	if cfg.Store == nil {
		return nil, errors.New("continual: controller needs a sample store")
	}
	if cfg.Trainer == nil && cfg.TrainFunc == nil {
		return nil, errors.New("continual: controller needs a trainer")
	}
	c := &Controller{
		cfg:          cfg,
		gate:         cfg.Gate.withDefaults(),
		state:        StateIdle,
		driftTrigger: drift.NewDetector(int(probe.NumFamilies), drift.Config{}),
		trigger:      make(chan string, 1),
	}
	c.driftTrigger.Reset() // the first full window of served traffic is the reference
	c.lastCycleEnd = cfg.Now()
	if cfg.StateDir != "" {
		jn, err := durable.Open(cfg.StateDir, durable.Options{Fsync: cfg.Fsync})
		if err != nil {
			return nil, fmt.Errorf("continual: open state journal: %w", err)
		}
		replayed := 0
		err = jn.Replay(func(payload []byte) error {
			var tr Transition
			if err := json.Unmarshal(payload, &tr); err != nil {
				return fmt.Errorf("continual: corrupt transition record: %w", err)
			}
			if tr.Cycle > c.cycle {
				c.cycle = tr.Cycle
			}
			c.transitions = append(c.transitions, tr)
			if len(c.transitions) > keepTransitions {
				c.transitions = c.transitions[1:]
			}
			replayed++
			return nil
		})
		if err == nil && replayed > keepTransitions {
			err = compactTransitions(jn, c.transitions)
		}
		if err != nil {
			jn.Close()
			return nil, err
		}
		c.jn = jn
	}
	mState.Set(stateCode[StateIdle])
	return c, nil
}

// compactTransitions rewrites the journal as the kept tail alone: a
// restart restores nothing else, and the tail's last record carries the
// highest cycle. The tail is appended to a fresh segment before the older
// ones are dropped, so a crash in between replays it twice, not never.
func compactTransitions(jn *durable.Journal, tail []Transition) error {
	seg, err := jn.Rotate()
	if err != nil {
		return err
	}
	for _, tr := range tail {
		payload, err := json.Marshal(tr)
		if err != nil {
			return err
		}
		if err := jn.Append(payload); err != nil {
			return err
		}
	}
	return jn.DropBefore(seg)
}

// Start launches the control loop. Idempotent; a no-op after Close (the
// journal is released — a restarted loop would write into a closed file).
func (c *Controller) Start() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stop != nil || c.stopped {
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.ctx = ctx
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.run()
	}()
	c.stop = sync.OnceFunc(func() { cancel(); <-done })
}

// Close stops the loop (canceling any in-flight retrain) and releases the
// journal. Idempotent, and permanent: Start after Close stays stopped.
func (c *Controller) Close() error {
	c.mu.Lock()
	stop := c.stop
	c.stopped = true
	c.mu.Unlock()
	if stop != nil {
		stop()
	}
	if c.jn != nil {
		return c.jn.Close()
	}
	return nil
}

// Ingest offers one live sample to the training buffer.
func (c *Controller) Ingest(smp Sample) error {
	return c.cfg.Store.Ingest(smp)
}

// ObserveServing is the serving path's tap: one served request and the
// coarse distribution it was answered with. The distribution feeds the
// drift trigger and, inside a watch window, the post-promotion
// regression watchdog; while a candidate shadows, the request is handed
// to the cycle, which replays it through the incumbent and the candidate.
// The hand-off never blocks: a request that finds the replay queue full
// is not replayed.
func (c *Controller) ObserveServing(row core.Row, coarse []float64) {
	if q := c.replay.Load(); q != nil {
		select {
		case *q <- row:
		default:
		}
	}
	c.detMu.Lock()
	defer c.detMu.Unlock()
	c.driftTrigger.Observe(coarse)
	if c.watchdog != nil {
		c.watchdog.Observe(coarse)
	}
}

// TriggerRetrain requests a cycle now (the POST /v1/continual/retrain
// handler). Fails when the loop is mid-cycle or not running.
func (c *Controller) TriggerRetrain(reason string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stop == nil || c.stopped {
		return errors.New("continual: controller not running")
	}
	switch c.state {
	case StateTraining, StateShadowing:
		return fmt.Errorf("continual: cycle already in progress (%s)", c.state)
	}
	if reason == "" {
		reason = "manual trigger"
	}
	select {
	case c.trigger <- reason:
		return nil
	default:
		return errors.New("continual: trigger already pending")
	}
}

// Status snapshots the loop for GET /v1/continual.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		State:        c.state,
		Cycle:        c.cycle,
		Candidate:    c.candidate,
		LastTrain:    c.lastTrain,
		LastShadow:   c.lastShadow,
		LastDecision: c.lastDecision,
		LastError:    c.lastErr,
		Transitions:  append([]Transition(nil), c.transitions...),
	}
	if c.state == StatePromoting {
		st.WatchUntil = c.watchUntil
	}
	st.StoreSamples = c.cfg.Store.Len()
	st.StoreLabeled = c.cfg.Store.LabeledLen()
	st.StoreSeen = c.cfg.Store.Seen()
	st.Strata = c.cfg.Store.Strata()
	return st
}

// State returns the current loop state.
func (c *Controller) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// transition moves the state machine, journaling and publishing the edge.
func (c *Controller) transition(to State, reason string) {
	c.mu.Lock()
	tr := Transition{
		Time: c.cfg.Now(), From: c.state, To: to,
		Reason: reason, Cycle: c.cycle, Version: c.candidate,
	}
	c.state = to
	c.transitions = append(c.transitions, tr)
	if len(c.transitions) > keepTransitions {
		c.transitions = c.transitions[1:]
	}
	c.mu.Unlock()

	mState.Set(stateCode[to])
	slog.Info("continual transition",
		"from", tr.From, "to", tr.To, "reason", reason, "cycle", tr.Cycle, "version", tr.Version)
	if c.jn != nil {
		if payload, err := json.Marshal(tr); err == nil {
			if err := c.jn.Append(payload); err != nil {
				slog.Warn("continual: journal transition", "err", err)
			}
		}
	}
}

// run is the control loop: one goroutine owns every cycle.
func (c *Controller) run() {
	ticker := time.NewTicker(c.cfg.CheckInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.ctx.Done():
			return
		case reason := <-c.trigger:
			c.runCycle(reason)
		case <-ticker.C:
			c.tick()
		}
	}
}

// tick publishes the drift trigger's verdict, then checks triggers and
// the regression watchdog.
func (c *Controller) tick() {
	verdict := c.driftVerdict()
	c.mu.Lock()
	state := c.state
	c.mu.Unlock()

	switch state {
	case StateIdle:
		if c.cfg.Store.Len() > 0 {
			c.transition(StateCollecting, "buffering live samples")
		}
	case StateCollecting, StateRolledBack:
		if reason, ok := c.shouldRetrain(verdict); ok {
			c.runCycle(reason)
		}
	case StatePromoting:
		c.checkWatchdog()
	}
}

// driftVerdict reads the drift trigger and publishes its verdict: the
// drift.* gauges describe this detector and no other, and drift.signals
// counts its stable→drifted edges.
func (c *Controller) driftVerdict() drift.Status {
	c.detMu.Lock()
	st := c.driftTrigger.Status()
	c.detMu.Unlock()
	mDriftPSI.Set(st.PSI)
	mDriftConfDelta.Set(st.ConfidenceDelta)
	mDriftSamplesLive.Set(float64(st.SamplesLive))
	mDriftSamplesRef.Set(float64(st.SamplesRef))
	if st.Drifted {
		mDrifted.Set(1)
	} else {
		mDrifted.Set(0)
	}
	if st.Drifted && !c.wasDrifted {
		mDriftSignals.Inc()
	}
	c.wasDrifted = st.Drifted
	return st
}

// shouldRetrain evaluates the drift and timer triggers.
func (c *Controller) shouldRetrain(verdict drift.Status) (string, bool) {
	if c.cfg.Store.Len() < c.cfg.MinSamples {
		return "", false
	}
	if verdict.Drifted {
		return "drift: " + verdict.Reason, true
	}
	if c.cfg.RetrainInterval > 0 {
		c.mu.Lock()
		due := c.cfg.Now().Sub(c.lastCycleEnd) >= c.cfg.RetrainInterval
		c.mu.Unlock()
		if due {
			return "retrain interval elapsed", true
		}
	}
	return "", false
}

// runCycle executes one full train → shadow → gate → promote cycle
// synchronously on the loop goroutine.
func (c *Controller) runCycle(reason string) {
	c.mu.Lock()
	c.cycle++
	c.candidate = fmt.Sprintf("retrain-%06d", c.cycle)
	version := c.candidate
	c.lastErr = ""
	c.mu.Unlock()
	mCycles.Inc()

	ctx, span := tracing.StartSpan(c.ctx, "continual.cycle")
	span.SetAttr("reason", reason)
	span.SetAttr("version", version)
	defer span.End()
	defer func() {
		c.mu.Lock()
		c.lastCycleEnd = c.cfg.Now()
		c.candidate = ""
		c.mu.Unlock()
	}()

	// Train.
	c.transition(StateTraining, reason)
	tctx, tspan := tracing.StartSpan(ctx, "continual.train")
	out, err := c.train(tctx)
	if err != nil {
		tspan.SetError(err)
		tspan.End()
		if c.ctx.Err() != nil {
			return // shutdown, not a failure
		}
		c.fail(span, "train failed: "+err.Error())
		return
	}
	tspan.End()
	c.mu.Lock()
	c.lastTrain = &TrainSummary{
		Epochs: out.Epochs, Resumed: out.Resumed, Specialized: out.Specialized,
		HoldoutSamples: out.HoldoutSamples, HoldoutIncumbent: out.HoldoutIncumbent,
		HoldoutCandidate: out.HoldoutCandidate,
	}
	c.mu.Unlock()

	// Shadow: replay the requests the serving tap hands over through the
	// incumbent and the candidate.
	reg := c.cfg.Engine.Registry()
	incumbent, incVersion, err := reg.ActiveBundle()
	if err != nil {
		c.fail(span, "shadow: "+err.Error())
		return
	}
	queue := make(chan core.Row, replayQueue)
	c.replay.Store(&queue)
	c.transition(StateShadowing, fmt.Sprintf("candidate %s replaying served traffic against %s", version, incVersion))
	sctx, sspan := tracing.StartSpan(ctx, "continual.shadow")
	eval, err := c.shadow(sctx, queue, incumbent, out.Bundle)
	c.replay.Store(nil)
	summary := eval.Summary()
	sspan.SetAttr("samples", summary.Samples)
	sspan.SetError(err)
	sspan.End()
	c.mu.Lock()
	c.lastShadow = &summary
	c.mu.Unlock()
	if err != nil {
		c.fail(span, "shadow: "+err.Error())
		return
	}

	// Gate.
	decision := c.gate.Decide(out, summary)
	c.mu.Lock()
	c.lastDecision = &decision
	c.mu.Unlock()
	if !decision.Promote {
		mRejections.Inc()
		c.transition(StateCollecting, "rejected: "+decision.Reason)
		return
	}

	// Register and promote, arm the watchdog. Only a candidate the gate
	// passed enters the registry: a rejected one is dropped with its cycle.
	_, pspan := tracing.StartSpan(ctx, "continual.promote")
	wd := c.buildWatchdog(eval)
	err = reg.Add(version, out.Bundle)
	if err == nil {
		err = reg.Promote(version)
	}
	if err != nil {
		pspan.SetError(err)
		pspan.End()
		c.fail(span, "promote failed: "+err.Error())
		return
	}
	pspan.End()
	mPromotions.Inc()
	c.detMu.Lock()
	c.driftTrigger.Reset() // the old reference describes the old model
	c.watchdog = wd
	c.detMu.Unlock()
	c.mu.Lock()
	c.watchUntil = c.cfg.Now().Add(c.cfg.WatchWindow)
	c.mu.Unlock()
	c.transition(StatePromoting, "promoted: "+decision.Reason)
}

// fail records a cycle error and returns the loop to collecting.
func (c *Controller) fail(span *tracing.Span, msg string) {
	span.SetError(errors.New(msg))
	c.mu.Lock()
	c.lastErr = msg
	c.mu.Unlock()
	slog.Warn("continual cycle failed", "err", msg)
	c.transition(StateCollecting, msg)
}

// shadow replays the requests the serving tap hands over through the
// incumbent and the candidate until the gate has MinShadowSamples
// comparisons, the shadow timeout passes, or ctx ends. Each
// pass takes whatever the tap has queued, up to replayBatch, and runs it
// through one session of each model back to back on this goroutine: both
// models see the same rows in the same batch on the same core, so their
// latency ratio compares the models and not the load they ran under. A
// model that panics on a replayed request fails the phase, not the
// process.
func (c *Controller) shadow(ctx context.Context, queue <-chan core.Row, incumbent, candidate *core.Bundle) (eval *shadowEvaluator, err error) {
	eval = newShadowEvaluator(int(probe.NumFamilies), c.cfg.Seed+int64(c.cycle))
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("a model panicked on a replayed request: %v", rec)
		}
	}()
	inc, cand := incumbent.NewSession(), candidate.NewSession()
	poll := time.NewTicker(min(c.cfg.CheckInterval, 20*time.Millisecond))
	defer poll.Stop()
	deadline := c.cfg.Now().Add(c.cfg.ShadowTimeout)
	rows := make([]core.Row, 0, replayBatch)
	for eval.Samples() < c.gate.MinShadowSamples && c.cfg.Now().Before(deadline) {
		select {
		case <-ctx.Done():
			return eval, nil
		case <-poll.C:
			continue
		case row := <-queue:
			rows = append(rows[:0], row)
		}
	fill:
		for len(rows) < replayBatch {
			select {
			case row := <-queue:
				rows = append(rows, row)
			default:
				break fill
			}
		}
		incDiags, incDur := timedPass(ctx, inc, rows)
		candDiags, candDur := timedPass(ctx, cand, rows)
		n := time.Duration(len(rows))
		for k := range rows {
			eval.Observe(observation{
				Incumbent: incDiags[k].Coarse, Candidate: candDiags[k].Coarse,
				IncumbentLatency: incDur / n, CandidateLatency: candDur / n,
			})
		}
	}
	return eval, nil
}

// timedPass diagnoses rows in one session call and times it; under a
// sampled cycle trace the pass is a child span of continual.shadow.
func timedPass(ctx context.Context, s *core.Session, rows []core.Row) ([]*core.Diagnosis, time.Duration) {
	start := time.Now()
	diags := s.DiagnoseRows(ctx, rows)
	return diags, time.Since(start)
}

// train runs the configured retrain path.
func (c *Controller) train(ctx context.Context) (*TrainOutcome, error) {
	if c.cfg.TrainFunc != nil {
		return c.cfg.TrainFunc(ctx)
	}
	bundle, _, err := c.cfg.Engine.Registry().ActiveBundle()
	if err != nil {
		return nil, err
	}
	base := bundle.General
	c.mu.Lock()
	seed := c.cfg.Seed + int64(c.cycle)
	c.mu.Unlock()
	train, holdout := c.cfg.Store.Export(base.FullLayout, holdoutFrac, seed)
	if train.Len() == 0 {
		return nil, errors.New("continual: export produced no training samples")
	}
	return c.cfg.Trainer.Train(ctx, base, train, holdout)
}

// buildWatchdog seeds a fresh drift detector with the candidate's
// shadow-phase coarse distributions — the pre-promotion reference the
// post-promotion live traffic is compared against: production behavior
// must keep matching what the gate vetted, whether the divergence comes
// from a serving-path difference or from traffic shifting right after
// the swap. Returns nil when the shadow phase produced too little
// baseline to judge regressions.
func (c *Controller) buildWatchdog(eval *shadowEvaluator) *drift.Detector {
	baseline := eval.Baseline()
	if len(baseline) < 8 {
		return nil
	}
	det := drift.NewDetector(int(probe.NumFamilies), drift.Config{
		WindowSize:   c.cfg.WatchWindowSize,
		PSIThreshold: c.cfg.WatchPSI,
	})
	for _, v := range baseline {
		det.Observe(v)
	}
	det.Freeze()
	return det
}

// checkWatchdog polls the regression watchdog during the watch window.
func (c *Controller) checkWatchdog() {
	c.detMu.Lock()
	wd := c.watchdog
	var st drift.Status
	if wd != nil {
		st = wd.Status()
	}
	c.detMu.Unlock()

	c.mu.Lock()
	expired := c.cfg.Now().After(c.watchUntil)
	c.mu.Unlock()

	if wd != nil && st.Drifted {
		restored, err := c.cfg.Engine.Registry().Rollback()
		c.detMu.Lock()
		c.watchdog = nil
		c.detMu.Unlock()
		mRollbacks.Inc()
		if err != nil {
			c.mu.Lock()
			c.lastErr = fmt.Sprintf("regression detected (%s) but rollback failed: %v", st.Reason, err)
			msg := c.lastErr
			c.mu.Unlock()
			slog.Error("continual rollback failed", "err", msg)
			c.transition(StateCollecting, msg)
			return
		}
		c.transition(StateRolledBack, fmt.Sprintf("regression: %s; restored %q", st.Reason, restored))
		return
	}
	if expired {
		c.detMu.Lock()
		c.watchdog = nil
		c.detMu.Unlock()
		c.transition(StateCollecting, "watch window passed clean")
	}
}

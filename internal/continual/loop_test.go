package continual

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diagnet/internal/core"
	"diagnet/internal/dataset"
	"diagnet/internal/drift"
	"diagnet/internal/durable"
	"diagnet/internal/probe"
	"diagnet/internal/serving"
)

// loopEngine boots a serving engine with the fixture model as "boot".
func loopEngine(t *testing.T) *serving.Engine {
	t.Helper()
	m, _ := fixture(t)
	e := serving.New(serving.Config{BatchMax: 4, Workers: 2})
	if err := e.Registry().AddModel("boot", m); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Promote("boot"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), serving.DrainTimeout)
		defer cancel()
		if err := e.Close(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return e
}

// nominalOnly filters a dataset down to its nominal samples.
func nominalOnly(d *dataset.Dataset) *dataset.Dataset {
	out := &dataset.Dataset{Layout: d.Layout}
	for i := range d.Samples {
		if !d.Samples[i].Degraded {
			out.Append(d.Samples[i])
		}
	}
	return out
}

// pump drives live traffic through the engine until the returned stop
// function runs, drawing uniform random samples (per-worker seeded RNG)
// from whatever dataset src currently holds — swapping src mid-test
// simulates a traffic shift. Every answered request is tapped into ctrl
// the way the analysis server's handlers tap it. Any serving error fails
// the test — the continual plane must never cost a client request.
func pump(t *testing.T, e *serving.Engine, src *atomic.Pointer[dataset.Dataset], ctrl *Controller) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	var failed atomic.Bool
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for ctx.Err() == nil {
				d := src.Load()
				s := &d.Samples[rng.Intn(d.Len())]
				row := core.Row{Service: s.Service, Layout: d.Layout, Features: s.Features}
				res, err := e.SubmitWait(ctx, &serving.Request{ServiceID: row.Service, Layout: row.Layout, Features: row.Features})
				if err != nil {
					if ctx.Err() == nil && !failed.Swap(true) {
						t.Errorf("live request failed: %v", err)
					}
					return
				}
				ctrl.ObserveServing(row, res.Diagnosis.Coarse)
			}
		}(w)
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// waitState polls the controller until it is in `want`, or has entered
// it since the call began.
func waitState(t *testing.T, c *Controller, want State, timeout time.Duration) {
	t.Helper()
	start := time.Now()
	deadline := start.Add(timeout)
	for {
		if got := c.State(); got == want || enteredSince(c, want, start) {
			return
		}
		if time.Now().After(deadline) {
			st := c.Status()
			t.Fatalf("state %q never reached %q (decision %+v, err %q, transitions %+v)",
				st.State, want, st.LastDecision, st.LastError, st.Transitions)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// enteredSince reports whether the controller's transition tail records
// an entry into state at or after since. A transient state (promoting,
// which the watchdog may leave within milliseconds) can come and go
// between two polls of State.
func enteredSince(c *Controller, state State, since time.Time) bool {
	for _, tr := range c.Status().Transitions {
		if tr.To == state && !tr.Time.Before(since) {
			return true
		}
	}
	return false
}

// triggerWindow is the drift trigger's window: drift.Config's default.
const triggerWindow = 200

// triggerStatus reads the controller's drift trigger.
func triggerStatus(c *Controller) drift.Status {
	c.detMu.Lock()
	defer c.detMu.Unlock()
	return c.driftTrigger.Status()
}

// TestLoopDriftToPromotion is the closed-loop e2e, driven through the
// controller's own drift trigger: a window of nominal served traffic
// freezes the trigger's reference, the traffic shifts to faults and the
// trigger fires, a retrain runs on buffered live samples, the candidate
// is replayed on served requests, the gate promotes it and the registry
// hot-swaps — all while client requests keep succeeding. The promotion
// re-baselines the trigger on the new model: the same shifted traffic,
// still flowing after the watch window passes clean, starts no second
// cycle.
func TestLoopDriftToPromotion(t *testing.T) {
	_, d := fixture(t)
	e := loopEngine(t)
	store := storeFromDataset(t, d, true, 32)
	defer store.Close()

	tr, err := NewTrainer(TrainerConfig{Epochs: 1, Seed: 3, SpecializeMin: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(Config{
		Engine:          e,
		Store:           store,
		Trainer:         tr,
		Gate:            GateConfig{MinShadowSamples: 128, MinGain: -1, MaxPSI: 100, MaxLatencyRatio: 100},
		ShadowTimeout:   20 * time.Second,
		CheckInterval:   5 * time.Millisecond,
		MinSamples:      16,
		WatchWindow:     150 * time.Millisecond,
		WatchWindowSize: 128,
		WatchPSI:        0.5,
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	var src atomic.Pointer[dataset.Dataset]
	src.Store(nominalOnly(d))
	stop := pump(t, e, &src, ctrl)
	defer stop()
	ctrl.Start()

	waitFor(t, ctrl, "the trigger's reference freeze on nominal traffic", 30*time.Second, func(Status) bool {
		return triggerStatus(ctrl).SamplesLive > 0
	})
	if st := ctrl.Status(); st.Cycle != 0 {
		t.Fatalf("nominal traffic started a cycle: %+v", st.Transitions)
	}
	src.Store(d.Degraded())
	waitState(t, ctrl, StatePromoting, 60*time.Second)

	if got := e.Registry().Active(); got != "retrain-000001" {
		t.Fatalf("active version %q after promotion", got)
	}
	st := ctrl.Status()
	var byDrift bool
	for _, tr := range st.Transitions {
		byDrift = byDrift || tr.To == StateTraining && strings.HasPrefix(tr.Reason, "drift: ")
	}
	if !byDrift {
		t.Fatalf("the cycle was not started by the drift trigger: %+v", st.Transitions)
	}
	if st.LastDecision == nil || !st.LastDecision.Promote {
		t.Fatalf("decision %+v", st.LastDecision)
	}
	if st.LastShadow == nil || st.LastShadow.Samples < 128 {
		t.Fatalf("shadow summary %+v", st.LastShadow)
	}
	if st.LastTrain == nil || st.LastTrain.HoldoutSamples == 0 {
		t.Fatalf("train summary %+v", st.LastTrain)
	}

	// The watch window passes clean and the loop returns to collecting.
	waitState(t, ctrl, StateCollecting, 10*time.Second)
	if got := e.Registry().Active(); got != "retrain-000001" {
		t.Fatalf("clean watch window still rolled back to %q", got)
	}
	// Traffic is still fault-heavy. Re-baselined on the promoted model, the
	// trigger fills a reference and a live window from it and stays quiet;
	// kept on the boot model's nominal reference, it reads drift and starts
	// a second cycle. The drift.* gauges are what this controller's last
	// tick saw: its ticks in the watch window overwrote any older value.
	waitFor(t, ctrl, "a tick on a full post-promotion live window", 30*time.Second, func(Status) bool {
		return mDriftSamplesLive.Value() == triggerWindow
	})
	if st := ctrl.Status(); mDrifted.Value() != 0 || st.Cycle != 1 {
		t.Fatalf("the trigger reads drift on traffic the promoted model was baselined on: drift.psi %.3f, cycle %d, state %q",
			mDriftPSI.Value(), st.Cycle, st.State)
	}
}

// peaked is a coarse distribution with confidence 0.9 on class k.
func peaked(k int) []float64 {
	out := make([]float64, probe.NumFamilies)
	for i := range out {
		out[i] = 0.1 / float64(len(out)-1)
	}
	out[k] = 0.9
	return out
}

// TestDriftMetricsDescribeTheTrigger: the drift.* metrics are the retrain
// trigger's verdict and no other detector's. While the post-promotion
// watchdog holds a drifted verdict and the trigger is stable, a tick
// leaves drift.drifted at 0 and drift.signals where it was; the
// trigger's own stable→drifted edges count once per episode, and a new
// episode after recovery counts again.
func TestDriftMetricsDescribeTheTrigger(t *testing.T) {
	e := loopEngine(t)
	// A second version, so the watchdog's rollback has one to restore.
	if err := e.Registry().AddModel("next", cloneModel(t)); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Promote("next"); err != nil {
		t.Fatal(err)
	}
	store, err := OpenStore(StoreConfig{}) // empty: no tick can start a cycle
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	ctrl, err := NewController(Config{
		Engine: e,
		Store:  store,
		TrainFunc: func(ctx context.Context) (*TrainOutcome, error) {
			t.Error("a tick started a cycle")
			return nil, context.Canceled
		},
		WatchWindow: time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	serve := func(class int) {
		for i := 0; i < triggerWindow; i++ {
			ctrl.ObserveServing(core.Row{}, peaked(class))
		}
	}
	signals := mDriftSignals.Value()
	checkTick := func(wantDrifted float64, wantSignals int64) {
		t.Helper()
		ctrl.tick()
		if got := mDrifted.Value(); got != wantDrifted {
			t.Fatalf("drift.drifted = %v, want %v", got, wantDrifted)
		}
		if got := mDriftSignals.Value() - signals; got != wantSignals {
			t.Fatalf("drift.signals grew by %d, want %d", got, wantSignals)
		}
	}

	serve(0) // the trigger's reference
	serve(0) // a stable live window

	// A watchdog whose live window left its baseline.
	wd := drift.NewDetector(int(probe.NumFamilies), drift.Config{WindowSize: 16})
	for i := 0; i < 16; i++ {
		wd.Observe(peaked(0))
	}
	wd.Freeze()
	for i := 0; i < 16; i++ {
		wd.Observe(peaked(4))
	}
	if !wd.Status().Drifted {
		t.Fatal("watchdog fixture is not drifted")
	}
	ctrl.detMu.Lock()
	ctrl.watchdog = wd
	ctrl.detMu.Unlock()
	ctrl.mu.Lock()
	ctrl.watchUntil = time.Now().Add(time.Minute)
	ctrl.mu.Unlock()
	ctrl.transition(StatePromoting, "test")

	checkTick(0, 0)
	if got := ctrl.State(); got != StateRolledBack {
		t.Fatalf("state %q: the watchdog's verdict was not acted on", got)
	}

	serve(4)
	checkTick(1, 1)
	checkTick(1, 1) // one episode counts once
	serve(0)
	checkTick(0, 1)
	serve(4)
	checkTick(1, 2)
}

// cloneModel is a behavior-identical copy of the fixture model that shares
// nothing with it.
func cloneModel(t *testing.T) *core.Model {
	t.Helper()
	m, _ := fixture(t)
	var buf bytes.Buffer
	if err := core.NewBundle(m).Save(&buf); err != nil {
		t.Fatal(err)
	}
	clone, err := core.LoadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return clone.General
}

// scrambledModel clones the fixture model and negates every weight: still
// finite (it passes the registry warm-up) but diagnostically useless.
func scrambledModel(t *testing.T) *core.Model {
	t.Helper()
	m2 := cloneModel(t)
	for _, p := range m2.Net.Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] = -p.Value.Data[i]
		}
	}
	return m2
}

// TestLoopGateRejectsRegression: a candidate that loses accuracy on the
// labeled holdout is rejected at the gate after it was compared on served
// requests — the incumbent keeps serving and the candidate never enters
// the registry.
func TestLoopGateRejectsRegression(t *testing.T) {
	e := loopEngine(t)
	_, d := fixture(t)
	store := storeFromDataset(t, d, true, 32)
	defer store.Close()

	bad := scrambledModel(t)
	ctrl, err := NewController(Config{
		Engine: e,
		Store:  store,
		Gate:   GateConfig{MinShadowSamples: 8, MaxPSI: 100, MaxLatencyRatio: 100},
		TrainFunc: func(ctx context.Context) (*TrainOutcome, error) {
			return &TrainOutcome{
				Bundle:           core.NewBundle(bad),
				Epochs:           1,
				HoldoutSamples:   50,
				HoldoutIncumbent: 0.90,
				HoldoutCandidate: 0.10,
			}, nil
		},
		ShadowTimeout: 10 * time.Second,
		CheckInterval: 5 * time.Millisecond,
		MinSamples:    16,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	var src atomic.Pointer[dataset.Dataset]
	src.Store(d.Degraded())
	stop := pump(t, e, &src, ctrl)
	defer stop()

	ctrl.Start()
	if err := ctrl.TriggerRetrain("test"); err != nil {
		t.Fatal(err)
	}
	waitState(t, ctrl, StateCollecting, 30*time.Second)

	st := ctrl.Status()
	if st.LastDecision == nil || st.LastDecision.Promote || !strings.Contains(st.LastDecision.Reason, "holdout") {
		t.Fatalf("regressed candidate was not rejected on its holdout: %+v", st.LastDecision)
	}
	if st.LastShadow == nil || st.LastShadow.Samples < 8 {
		t.Fatalf("candidate was judged on %+v, want at least 8 replayed requests", st.LastShadow)
	}
	assertOnlyBoot(t, e)
}

// assertOnlyBoot fails unless "boot" is the one version the registry
// holds and serves.
func assertOnlyBoot(t *testing.T, e *serving.Engine) {
	t.Helper()
	if got := e.Registry().Active(); got != "boot" {
		t.Fatalf("active version %q, want boot", got)
	}
	if vs := e.Registry().Versions(); len(vs) != 1 {
		t.Fatalf("registry holds %+v; a candidate that was not promoted must not be registered", vs)
	}
}

// TestLoopWatchdogRollsBack: a candidate is vetted on shadow traffic and
// promoted — then the traffic distribution shifts during the watch
// window, so the vetting no longer describes production. The watchdog
// (candidate live behavior vs its own shadow-phase baseline) fires and
// restores the previous version.
func TestLoopWatchdogRollsBack(t *testing.T) {
	e := loopEngine(t)
	_, d := fixture(t)
	store := storeFromDataset(t, d, true, 32)
	defer store.Close()

	// The candidate is behavior-identical to the incumbent (a clean
	// clone): promotion is trivially safe at vetting time. There is one
	// candidate: after the rollback the drift trigger starts a new cycle,
	// and a second promotion racing the assertions below would replace
	// the restored version they check.
	clone := cloneModel(t)
	var trained atomic.Bool
	ctrl, err := NewController(Config{
		Engine: e,
		Store:  store,
		Gate:   GateConfig{MinShadowSamples: 32, MaxPSI: 100, MaxLatencyRatio: 100},
		TrainFunc: func(ctx context.Context) (*TrainOutcome, error) {
			if trained.Swap(true) {
				return nil, errors.New("one candidate per test")
			}
			return &TrainOutcome{Bundle: core.NewBundle(clone), Epochs: 1}, nil
		},
		ShadowTimeout:   10 * time.Second,
		CheckInterval:   5 * time.Millisecond,
		MinSamples:      16,
		WatchWindow:     30 * time.Second,
		WatchWindowSize: 64,
		Seed:            7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	var src atomic.Pointer[dataset.Dataset]
	src.Store(d.Degraded())
	stop := pump(t, e, &src, ctrl)
	defer stop()

	ctrl.Start()
	if err := ctrl.TriggerRetrain("test"); err != nil {
		t.Fatal(err)
	}
	waitState(t, ctrl, StatePromoting, 30*time.Second)

	// Traffic shifts right after the swap: fault-heavy → all-nominal.
	// The candidate now predicts a completely different distribution
	// than the one it was vetted on.
	src.Store(nominalOnly(d))
	waitState(t, ctrl, StateRolledBack, 30*time.Second)

	if got := e.Registry().Active(); got != "boot" {
		t.Fatalf("active version %q after rollback, want boot", got)
	}
	st := ctrl.Status()
	var saw bool
	for _, tr := range st.Transitions {
		if tr.To == StateRolledBack {
			saw = true
		}
	}
	if !saw {
		t.Fatal("rollback transition not recorded")
	}
}

// TestLoopConcurrentIngest hammers Ingest and Status from many
// goroutines while a real retrain cycle runs — the -race companion to
// the e2e tests.
func TestLoopConcurrentIngest(t *testing.T) {
	e := loopEngine(t)
	_, d := fixture(t)
	store := storeFromDataset(t, d, true, 32)
	defer store.Close()

	tr, err := NewTrainer(TrainerConfig{Epochs: 1, Seed: 3, SpecializeMin: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(Config{
		Engine:        e,
		Store:         store,
		Trainer:       tr,
		Gate:          GateConfig{MinShadowSamples: 8, MinGain: -1, MaxPSI: 100, MaxLatencyRatio: 100},
		ShadowTimeout: 10 * time.Second,
		CheckInterval: 5 * time.Millisecond,
		MinSamples:    16,
		WatchWindow:   50 * time.Millisecond,
		// An 8-request baseline cannot judge a regression at the default
		// threshold (its PSI noise is ≈ classes·(1/8 + 1/64)); rolling back
		// is TestLoopWatchdogRollsBack's subject, not this one's.
		WatchPSI: 100,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	var src atomic.Pointer[dataset.Dataset]
	src.Store(d.Degraded())
	stop := pump(t, e, &src, ctrl)
	defer stop()

	ingestCtx, ingestCancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ingestCtx.Err() == nil; i++ {
				s := &d.Samples[(i*4+w)%d.Len()]
				err := ctrl.Ingest(Sample{
					Service:   s.Service,
					Landmarks: d.Layout.Landmarks,
					Features:  s.Features,
					Family:    int(s.Family),
					Cause:     -1,
					Labeled:   i%3 == 0,
				})
				if err != nil {
					t.Errorf("ingest: %v", err)
					return
				}
				ctrl.Status() // concurrent reads must be safe too
				time.Sleep(time.Millisecond)
			}
		}(w)
	}

	ctrl.Start()
	if err := ctrl.TriggerRetrain("test"); err != nil {
		t.Fatal(err)
	}
	waitState(t, ctrl, StatePromoting, 30*time.Second)
	waitState(t, ctrl, StateCollecting, 10*time.Second)
	ingestCancel()
	wg.Wait()

	if got := e.Registry().Active(); got != "retrain-000001" {
		t.Fatalf("active version %q", got)
	}
}

// TestControllerTrainFailureAndJournal covers the failed-cycle path and
// the transition journal's restart semantics (cycle counter survives so
// candidate names never collide).
func TestControllerTrainFailureAndJournal(t *testing.T) {
	e := loopEngine(t)
	_, d := fixture(t)
	store := storeFromDataset(t, d, true, 32)
	defer store.Close()
	dir := t.TempDir()

	mk := func() *Controller {
		ctrl, err := NewController(Config{
			Engine: e,
			Store:  store,
			TrainFunc: func(ctx context.Context) (*TrainOutcome, error) {
				return nil, context.DeadlineExceeded
			},
			CheckInterval: 5 * time.Millisecond,
			MinSamples:    16,
			StateDir:      dir,
			Seed:          7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}

	ctrl := mk()
	ctrl.Start()
	if err := ctrl.TriggerRetrain("test"); err != nil {
		t.Fatal(err)
	}
	waitState(t, ctrl, StateCollecting, 10*time.Second)
	st := ctrl.Status()
	if st.LastError == "" || st.Cycle != 1 {
		t.Fatalf("status after failed cycle: %+v", st)
	}
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the journal restores the cycle counter and history.
	ctrl2 := mk()
	defer ctrl2.Close()
	st2 := ctrl2.Status()
	if st2.Cycle != 1 {
		t.Fatalf("cycle %d after restart, want 1", st2.Cycle)
	}
	if len(st2.Transitions) == 0 {
		t.Fatal("transition history lost across restart")
	}
}

// TestControllerCompactsTransitionJournal: a restart keeps only the last
// keepTransitions records and the cycle counter, so the journal it leaves
// behind holds no more than that however long the loop ran before.
func TestControllerCompactsTransitionJournal(t *testing.T) {
	e := loopEngine(t)
	_, d := fixture(t)
	store := storeFromDataset(t, d, true, 32)
	defer store.Close()
	dir := t.TempDir()
	jn, err := durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for cycle := 1; cycle <= 100; cycle++ {
		payload, err := json.Marshal(Transition{From: StateTraining, To: StateCollecting, Cycle: cycle})
		if err != nil {
			t.Fatal(err)
		}
		if err := jn.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	ctrl, err := NewController(Config{
		Engine:    e,
		Store:     store,
		TrainFunc: func(ctx context.Context) (*TrainOutcome, error) { return nil, context.Canceled },
		StateDir:  dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st := ctrl.Status(); st.Cycle != 100 || len(st.Transitions) != keepTransitions {
		t.Fatalf("restored cycle %d and %d transitions, want 100 and %d", st.Cycle, len(st.Transitions), keepTransitions)
	}
	if err := ctrl.Close(); err != nil {
		t.Fatal(err)
	}

	jn, err = durable.Open(dir, durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	records, last := 0, 0
	if err := jn.Replay(func(payload []byte) error {
		var tr Transition
		if err := json.Unmarshal(payload, &tr); err != nil {
			return err
		}
		records, last = records+1, tr.Cycle
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if records > keepTransitions || last != 100 {
		t.Fatalf("journal holds %d records ending at cycle %d after a restart, want at most %d ending at 100", records, last, keepTransitions)
	}
}

// waitFor polls cond until it holds.
func waitFor(t *testing.T, c *Controller, what string, timeout time.Duration, cond func(Status) bool) {
	t.Helper()
	for deadline := time.Now().Add(timeout); ; time.Sleep(2 * time.Millisecond) {
		st := c.Status()
		if cond(st) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw %s: %+v", what, st)
		}
	}
}

// TestShadowReplaysTappedRequests: a candidate is vetted on exactly what
// the serving tap hands the controller while it shadows. Every request
// tapped in the phase is replayed through the incumbent and the candidate,
// and none tapped before it is. No engine traffic runs — the test is the
// tap.
func TestShadowReplaysTappedRequests(t *testing.T) {
	e := loopEngine(t)
	m, d := fixture(t)
	store := storeFromDataset(t, d, true, 32)
	defer store.Close()
	clone := cloneModel(t)

	const n = 24
	ctrl, err := NewController(Config{
		Engine: e,
		Store:  store,
		Gate:   GateConfig{MinShadowSamples: n, MaxPSI: 100, MaxLatencyRatio: 100},
		TrainFunc: func(ctx context.Context) (*TrainOutcome, error) {
			return &TrainOutcome{Bundle: core.NewBundle(clone), Epochs: 1}, nil
		},
		ShadowTimeout: time.Minute,
		CheckInterval: 5 * time.Millisecond,
		MinSamples:    16,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()
	tap := func(i int) {
		s := &d.Samples[i%d.Len()]
		ctrl.ObserveServing(core.Row{Service: s.Service, Layout: d.Layout, Features: s.Features}, m.CoarsePredict(s.Features, d.Layout))
	}

	for i := 0; i < replayQueue; i++ {
		tap(i)
	}
	ctrl.Start()
	if err := ctrl.TriggerRetrain("test"); err != nil {
		t.Fatal(err)
	}
	waitState(t, ctrl, StateShadowing, 10*time.Second)
	for i := 0; i < n; i++ {
		tap(i)
	}
	waitState(t, ctrl, StatePromoting, 30*time.Second)

	sh := ctrl.Status().LastShadow
	if sh == nil || sh.Samples != n {
		t.Fatalf("shadow summary %+v, want the %d requests tapped while shadowing", sh, n)
	}
	// A clone on identical rows: full agreement, no shift, both passes timed.
	if sh.AgreeRate != 1 || sh.PSI > 1e-9 || sh.LatencyRatio <= 0 {
		t.Fatalf("clone compared as %+v", sh)
	}
	if got := e.Registry().Active(); got != "retrain-000001" {
		t.Fatalf("active version %q after promotion", got)
	}
}

// TestLoopPanickingCandidateFailsCycle: a candidate that panics on the
// requests it is replayed on fails its cycle at once, not at the shadow
// timeout. The controller survives to run the next cycle, the incumbent
// keeps serving, and the candidate never enters the registry.
func TestLoopPanickingCandidateFailsCycle(t *testing.T) {
	e := loopEngine(t)
	_, d := fixture(t)
	store := storeFromDataset(t, d, true, 32)
	defer store.Close()
	broken := cloneModel(t)
	broken.Norm = nil // every pass through it dereferences the normalizer

	ctrl, err := NewController(Config{
		Engine: e,
		Store:  store,
		Gate:   GateConfig{MinShadowSamples: 8, MinGain: -1, MaxPSI: 100, MaxLatencyRatio: 100},
		TrainFunc: func(ctx context.Context) (*TrainOutcome, error) {
			return &TrainOutcome{Bundle: core.NewBundle(broken), Epochs: 1}, nil
		},
		ShadowTimeout: time.Minute,
		CheckInterval: 5 * time.Millisecond,
		MinSamples:    16,
		Seed:          7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	var src atomic.Pointer[dataset.Dataset]
	src.Store(d.Degraded())
	stop := pump(t, e, &src, ctrl)
	defer stop()

	ctrl.Start()
	for cycle := 1; cycle <= 2; cycle++ {
		waitFor(t, ctrl, "an idle loop", 10*time.Second, func(st Status) bool {
			return st.State == StateCollecting || st.State == StateIdle
		})
		if err := ctrl.TriggerRetrain("test"); err != nil {
			t.Fatal(err)
		}
		waitFor(t, ctrl, "the cycle fail on the panic", 10*time.Second, func(st Status) bool {
			return st.Cycle == cycle && st.State == StateCollecting && strings.Contains(st.LastError, "panicked")
		})
	}
	assertOnlyBoot(t, e)
}

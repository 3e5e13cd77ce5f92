package continual

import (
	"bytes"
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diagnet/internal/core"
	"diagnet/internal/dataset"
	"diagnet/internal/drift"
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
// simulates a traffic shift. Every response is reported to onResult. Any
// serving error fails the test — the continual plane must never cost a
// client request.
func pump(t *testing.T, e *serving.Engine, src *atomic.Pointer[dataset.Dataset], onResult func(*serving.Result)) (stop func()) {
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
				res, err := e.SubmitWait(ctx, &serving.Request{
					ServiceID: s.Service,
					Layout:    d.Layout,
					Features:  s.Features,
				})
				if err != nil {
					if ctx.Err() == nil && !failed.Swap(true) {
						t.Errorf("live request failed: %v", err)
					}
					return
				}
				if onResult != nil {
					onResult(res)
				}
			}
		}(w)
	}
	return func() {
		cancel()
		wg.Wait()
	}
}

// waitState polls the controller until it reaches `want`.
func waitState(t *testing.T, c *Controller, want State, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		if got := c.State(); got == want {
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

// guardedDetector makes a drift.Detector safe for the test's concurrent
// observe/status callers (mirrors analysis.Server's locking).
type guardedDetector struct {
	mu  sync.Mutex
	det *drift.Detector
}

func (g *guardedDetector) Observe(coarse []float64) {
	g.mu.Lock()
	g.det.Observe(coarse)
	g.mu.Unlock()
}

func (g *guardedDetector) Status() drift.Status {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.det.Status()
}

func (g *guardedDetector) Reset(n int) {
	g.mu.Lock()
	g.det.Reset(n)
	g.mu.Unlock()
}

// TestLoopDriftToPromotion is the closed-loop e2e: live traffic shifts,
// the drift detector fires, a retrain runs on buffered live samples, the
// candidate shadows live traffic, the gate promotes it, the registry
// hot-swaps, and the drift reference re-arms — all while client requests
// keep succeeding.
func TestLoopDriftToPromotion(t *testing.T) {
	m, d := fixture(t)
	e := loopEngine(t)
	store := storeFromDataset(t, d, true, 32)
	defer store.Close()

	// Real drift detector: baseline on nominal-traffic predictions, then
	// a live window full of fault-traffic predictions — the distribution
	// shift that must trigger the loop. Window 128 keeps small-sample PSI
	// noise well under the threshold once re-armed.
	const win = 128
	gd := &guardedDetector{det: drift.NewDetector(int(probe.NumFamilies), drift.Config{WindowSize: win})}
	nom := nominalOnly(d)
	for i := 0; i < win; i++ {
		gd.Observe(m.CoarsePredict(nom.Samples[i%nom.Len()].Features, d.Layout))
	}
	gd.det.Freeze()
	deg := d.Degraded()
	for i := 0; i < win; i++ {
		gd.Observe(m.CoarsePredict(deg.Samples[i%deg.Len()].Features, d.Layout))
	}
	if !gd.Status().Drifted {
		t.Fatal("fixture shift did not trip the detector")
	}

	var resets atomic.Int64
	tr, err := NewTrainer(TrainerConfig{Epochs: 1, Seed: 3, SpecializeMin: -1})
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(Config{
		Engine:         e,
		Store:          store,
		Trainer:        tr,
		Gate:           GateConfig{MinShadowSamples: 128, MinGain: -1, MaxPSI: 100, MaxLatencyRatio: 100},
		ShadowFraction: 1,
		ShadowTimeout:  20 * time.Second,
		CheckInterval:  5 * time.Millisecond,
		MinSamples:     16,
		DriftStatus:    gd.Status,
		ResetDrift: func() {
			resets.Add(1)
			gd.Reset(0)
		},
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
	src.Store(deg)
	stop := pump(t, e, &src, func(res *serving.Result) {
		gd.Observe(res.Diagnosis.Coarse)
		ctrl.ObserveServing(res.Diagnosis.Coarse)
	})
	defer stop()

	ctrl.Start()
	waitState(t, ctrl, StatePromoting, 60*time.Second)

	if got := e.Registry().Active(); got != "retrain-000001" {
		t.Fatalf("active version %q after promotion", got)
	}
	if e.Registry().ShadowVersion() != "" {
		t.Fatal("shadow candidate still installed after promotion")
	}
	if resets.Load() == 0 {
		t.Fatal("drift reference was not reset after promotion")
	}
	st := ctrl.Status()
	if st.LastDecision == nil || !st.LastDecision.Promote {
		t.Fatalf("decision %+v", st.LastDecision)
	}
	if st.LastShadow == nil || st.LastShadow.Samples < 128 {
		t.Fatalf("shadow summary %+v", st.LastShadow)
	}
	if st.LastTrain == nil || st.LastTrain.HoldoutSamples == 0 {
		t.Fatalf("train summary %+v", st.LastTrain)
	}

	// Stable traffic through the watch window: the watchdog stays quiet
	// and the loop returns to collecting.
	waitState(t, ctrl, StateCollecting, 10*time.Second)
	if got := e.Registry().Active(); got != "retrain-000001" {
		t.Fatalf("clean watch window still rolled back to %q", got)
	}
}

// scrambledModel clones the fixture model and negates every weight: still
// finite (it passes the registry warm-up) but diagnostically useless.
func scrambledModel(t *testing.T) *core.Model {
	t.Helper()
	m, _ := fixture(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range m2.Net.Params() {
		for i := range p.Value.Data {
			p.Value.Data[i] = -p.Value.Data[i]
		}
	}
	return m2
}

// TestLoopGateRejectsRegression: a candidate that loses accuracy on the
// labeled holdout is rejected at the gate — the incumbent keeps serving
// and the shadow slot is cleared.
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
		ShadowFraction: 1,
		ShadowTimeout:  10 * time.Second,
		CheckInterval:  5 * time.Millisecond,
		MinSamples:     16,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	var src atomic.Pointer[dataset.Dataset]
	src.Store(d.Degraded())
	stop := pump(t, e, &src, nil)
	defer stop()

	ctrl.Start()
	if err := ctrl.TriggerRetrain("test"); err != nil {
		t.Fatal(err)
	}
	waitState(t, ctrl, StateCollecting, 30*time.Second)

	st := ctrl.Status()
	if st.LastDecision == nil || st.LastDecision.Promote {
		t.Fatalf("regressed candidate was promoted: %+v", st.LastDecision)
	}
	if got := e.Registry().Active(); got != "boot" {
		t.Fatalf("active version %q, want boot", got)
	}
	if e.Registry().ShadowVersion() != "" {
		t.Fatal("rejected candidate still installed as shadow")
	}
}

// TestLoopWatchdogRollsBack: a candidate is vetted on shadow traffic and
// promoted — then the traffic distribution shifts during the watch
// window, so the vetting no longer describes production. The watchdog
// (candidate live behavior vs its own shadow-phase baseline) fires and
// restores the previous version.
func TestLoopWatchdogRollsBack(t *testing.T) {
	e := loopEngine(t)
	m, d := fixture(t)
	store := storeFromDataset(t, d, true, 32)
	defer store.Close()

	// The candidate is behavior-identical to the incumbent (a clean
	// clone): promotion is trivially safe at vetting time.
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	clone, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ctrl, err := NewController(Config{
		Engine: e,
		Store:  store,
		Gate:   GateConfig{MinShadowSamples: 32, MaxPSI: 100, MaxLatencyRatio: 100},
		TrainFunc: func(ctx context.Context) (*TrainOutcome, error) {
			return &TrainOutcome{Bundle: core.NewBundle(clone), Epochs: 1}, nil
		},
		ShadowFraction:  1,
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
	stop := pump(t, e, &src, func(res *serving.Result) {
		ctrl.ObserveServing(res.Diagnosis.Coarse)
	})
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
		Engine:         e,
		Store:          store,
		Trainer:        tr,
		Gate:           GateConfig{MinShadowSamples: 8, MinGain: -1, MaxPSI: 100, MaxLatencyRatio: 100},
		ShadowFraction: 1,
		ShadowTimeout:  10 * time.Second,
		CheckInterval:  5 * time.Millisecond,
		MinSamples:     16,
		WatchWindow:    50 * time.Millisecond,
		Seed:           7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ctrl.Close()

	var src atomic.Pointer[dataset.Dataset]
	src.Store(d.Degraded())
	stop := pump(t, e, &src, nil)
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

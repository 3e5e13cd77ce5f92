package main

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"diagnet"
	"diagnet/internal/analysis"
	"diagnet/internal/collector"
	"diagnet/internal/core"
	"diagnet/internal/dataset"
	"diagnet/internal/forest"
	"diagnet/internal/landmark"
	"diagnet/internal/netsim"
	"diagnet/internal/probe"
	"diagnet/internal/resilience"
)

var (
	modelOnce sync.Once
	model     *core.Model
)

// trainedModel trains one small general model for the package's tests.
func trainedModel(t *testing.T) *core.Model {
	t.Helper()
	modelOnce.Do(func() {
		w := netsim.NewWorld(netsim.Config{Seed: 1})
		d := dataset.Generate(dataset.GenConfig{
			World:          w,
			NominalSamples: 300,
			FaultSamples:   800,
			Seed:           21,
		})
		train, _ := d.Split(0.8, netsim.HiddenLandmarks(), 23)
		cfg := core.DefaultConfig()
		cfg.Filters = 6
		cfg.Hidden = []int{24, 12}
		cfg.Epochs = 4
		cfg.Forest = forest.Config{Trees: 8, Tree: forest.TreeConfig{MaxDepth: 5}}
		known := []int{netsim.BEAU, netsim.AMST, netsim.SING, netsim.LOND, netsim.FRNK, netsim.TOKY, netsim.SYDN}
		model = core.TrainGeneral(train, known, cfg).Model
	})
	return model
}

// liveRound runs one collector.LiveSource round over the fleet, timing
// the page load of the first landmark's /ping.
func liveRound(prober *landmark.MultiProber, urls []string, regions []int, minLandmarks int) (collector.Round, error) {
	src := &collector.LiveSource{Prober: prober, URLs: urls, Regions: regions,
		ServiceURL: urls[0] + "/ping", MinLandmarks: minLandmarks}
	return src.Round(context.Background(), 0)
}

// chaosFleet starts `total` landmark servers, the last `flaky` of them
// wrapped in fault injection.
func chaosFleet(t *testing.T, total, flaky int, faultCfg landmark.FlakyConfig) []string {
	t.Helper()
	urls := make([]string, 0, total)
	for i := 0; i < total; i++ {
		s := &landmark.Server{}
		var h = s.Handler()
		if i >= total-flaky {
			cfg := faultCfg
			cfg.Seed = int64(i + 1)
			h = diagnet.NewFlakyHandler(h, cfg)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	return urls
}

// TestChaosRoundPartialDiagnosis is the acceptance scenario: with 3 of 10
// landmarks failing (errors and stalls injected), a probing round must
// complete within its deadline, produce a DiagnoseRequest containing
// exactly the 7 healthy landmarks, and the analysis server must answer it.
func TestChaosRoundPartialDiagnosis(t *testing.T) {
	urls := chaosFleet(t, 10, 3, landmark.FlakyConfig{ErrorRate: 0.7, StallRate: 0.3})
	regions := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}

	prober := diagnet.NewMultiProber(diagnet.MultiProberConfig{
		Prober:        landmark.ProberConfig{Pings: 2, DownloadBytes: 32 << 10, UploadBytes: 16 << 10, Timeout: 2 * time.Second},
		MaxConcurrent: 5,
		RoundTimeout:  20 * time.Second,
		Retry:         diagnet.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
	})

	start := time.Now()
	snap, err := liveRound(prober, urls, regions, 5)
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed > 20*time.Second {
		t.Fatalf("round took %v, deadline 20s", elapsed)
	}
	if len(snap.Landmarks) != 7 {
		t.Fatalf("surviving landmarks %v, want the 7 healthy ones", snap.Landmarks)
	}
	for i, r := range snap.Landmarks {
		if r != i {
			t.Fatalf("healthy subset wrong: %v", snap.Landmarks)
		}
	}
	if len(snap.Lost) != 3 {
		t.Fatalf("lost %v, want the 3 flaky landmarks", snap.Lost)
	}
	wantFeatures := 7*int(probe.NumMetrics) + probe.NumLocal
	if len(snap.Features) != wantFeatures {
		t.Fatalf("degraded feature vector has %d entries, want %d", len(snap.Features), wantFeatures)
	}

	// The analysis server must accept the degraded-mode request as-is.
	srv := analysis.NewServer(trainedModel(t))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := analysis.NewClient(ts.URL)
	resp, err := client.Diagnose(context.Background(), &analysis.DiagnoseRequest{
		ServiceID: -1,
		Landmarks: snap.Landmarks,
		Features:  snap.Features,
		TopK:      5,
	})
	if err != nil {
		t.Fatalf("degraded-mode diagnosis rejected: %v", err)
	}
	if resp.Family == "" || len(resp.Causes) != 5 {
		t.Fatalf("implausible diagnosis: %+v", resp)
	}
}

// TestProbeRoundTooFewLandmarks verifies the min-landmarks floor.
func TestProbeRoundTooFewLandmarks(t *testing.T) {
	urls := chaosFleet(t, 3, 3, landmark.FlakyConfig{ErrorRate: 1})
	prober := diagnet.NewMultiProber(diagnet.MultiProberConfig{
		Prober:       landmark.ProberConfig{Pings: 2, DownloadBytes: 16 << 10, UploadBytes: 8 << 10, Timeout: 2 * time.Second},
		RoundTimeout: 10 * time.Second,
		Retry:        diagnet.RetryPolicy{MaxAttempts: 1},
	})
	if _, err := liveRound(prober, urls, []int{0, 1, 2}, 1); err == nil {
		t.Fatal("round with zero surviving landmarks must fail")
	}
}

// TestProbeRoundFullFleet is the nominal path: nothing lost, full layout.
func TestProbeRoundFullFleet(t *testing.T) {
	urls := chaosFleet(t, 4, 0, landmark.FlakyConfig{})
	prober := diagnet.NewMultiProber(diagnet.MultiProberConfig{
		Prober:       landmark.ProberConfig{Pings: 2, DownloadBytes: 16 << 10, UploadBytes: 8 << 10, Timeout: 3 * time.Second},
		RoundTimeout: 15 * time.Second,
	})
	snap, err := liveRound(prober, urls, []int{3, 1, 4, 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Lost) != 0 || len(snap.Landmarks) != 4 {
		t.Fatalf("full fleet degraded: %+v", snap)
	}
	if len(snap.Features) != 4*int(probe.NumMetrics)+probe.NumLocal {
		t.Fatalf("feature width %d", len(snap.Features))
	}
}

// TestChaosRecoveryAcrossRounds drives rounds through a breaker cycle: a
// landmark dies, its circuit opens (skipping the full probe), then it
// heals and rounds return to full strength.
func TestChaosRecoveryAcrossRounds(t *testing.T) {
	healthy := &landmark.Server{}
	hts := httptest.NewServer(healthy.Handler())
	defer hts.Close()
	sick := &landmark.Server{}
	fh := diagnet.NewFlakyHandler(sick.Handler(), landmark.FlakyConfig{ErrorRate: 1, Seed: 5})
	sts := httptest.NewServer(fh)
	defer sts.Close()

	var mu sync.Mutex
	now := time.Unix(1700000000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	prober := diagnet.NewMultiProber(diagnet.MultiProberConfig{
		Prober:       landmark.ProberConfig{Pings: 2, DownloadBytes: 16 << 10, UploadBytes: 8 << 10, Timeout: 2 * time.Second},
		RoundTimeout: 10 * time.Second,
		Retry:        diagnet.RetryPolicy{MaxAttempts: 1},
		Breaker:      resilience.BreakerConfig{FailureThreshold: 2, Cooldown: time.Minute, Now: clock},
	})
	urls := []string{hts.URL, sts.URL}
	regions := []int{0, 1}

	// Rounds 1-2: flaky landmark fails, circuit opens; degraded rounds
	// still succeed on the healthy landmark.
	for round := 0; round < 2; round++ {
		snap, err := liveRound(prober, urls, regions, 1)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if len(snap.Landmarks) != 1 || snap.Landmarks[0] != 0 {
			t.Fatalf("round %d: regions %v", round, snap.Landmarks)
		}
	}
	// Round 3: circuit open → the sick landmark is skipped outright.
	downloads := sick.Stats().Downloads
	if _, err := liveRound(prober, urls, regions, 1); err != nil {
		t.Fatal(err)
	}
	if sick.Stats().Downloads != downloads {
		t.Fatal("open circuit still probing")
	}
	// Heal, wait out the cooldown: next round recovers both landmarks.
	fh.SetConfig(landmark.FlakyConfig{})
	advance(61 * time.Second)
	snap, err := liveRound(prober, urls, regions, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Landmarks) != 2 {
		t.Fatalf("recovered round still degraded: %+v", snap)
	}
	if h := prober.Health()[sts.URL]; h.State != "closed" {
		t.Fatalf("breaker %q after recovery", h.State)
	}
}

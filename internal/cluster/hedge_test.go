package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"diagnet/internal/analysis"
	"diagnet/internal/landmark"
)

// TestHedgeRescuesSlowPrimary is the deterministic hedging scenario from
// DESIGN.md §14: two replicas, the rendezvous primary shaped slow by a
// latency-injecting FlakyHandler (every request +400ms), a fixed 40ms
// hedging delay. Exactly one hedge fires, the fast secondary wins it, and
// the slow loser is canceled — the client sees a fast success, never the
// injected latency.
func TestHedgeRescuesSlowPrimary(t *testing.T) {
	t.Parallel()
	// Both replicas get a runtime-configurable FlakyHandler in front of
	// their diagnose route (readiness stays clean — the probe plane must
	// not absorb the chaos meant for the data plane). Which one is slow is
	// decided after the URLs exist, because the rendezvous primary depends
	// on the ephemeral ports.
	flakyA := landmark.NewFlakyHandler(okDiagnose("a"), landmark.FlakyConfig{Seed: 1})
	flakyB := landmark.NewFlakyHandler(okDiagnose("b"), landmark.FlakyConfig{Seed: 1})
	a := newFakeReplica(t, flakyA)
	b := newFakeReplica(t, flakyB)
	reps := []*fakeReplica{a, b}

	const svc = 7
	primary := byAffinity(fmt.Sprintf("svc:%d", svc), reps)[0]
	slow, fastVersion := flakyA, "b"
	if primary == b {
		slow, fastVersion = flakyB, "a"
	}
	slow.SetConfig(landmark.FlakyConfig{LatencyRate: 1, Latency: 400 * time.Millisecond, Seed: 1})

	rt := newTestRouter(t, []string{a.url(), b.url()}, Config{
		HedgeAfter: 40 * time.Millisecond, // fixed: the test controls the timeline
	})
	ts := httptest.NewServer(rt)
	defer ts.Close()

	body, _ := json.Marshal(analysis.DiagnoseRequest{ServiceID: svc, Landmarks: []int{0}, Features: []float64{1}})
	start := time.Now()
	status, out := postJSON(t, ts.Client(), ts.URL+"/v1/diagnose", body)
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, out)
	}
	var resp analysis.DiagnoseResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ModelVersion != fastVersion {
		t.Errorf("answer came from %q, want the fast secondary %q", resp.ModelVersion, fastVersion)
	}
	if elapsed >= 400*time.Millisecond {
		t.Errorf("client waited %v — the hedge did not rescue the injected 400ms", elapsed)
	}

	s := rt.Stats()
	if s.Hedges != 1 {
		t.Errorf("Hedges = %d, want exactly 1", s.Hedges)
	}
	if s.HedgeWins != 1 {
		t.Errorf("HedgeWins = %d, want 1", s.HedgeWins)
	}
	if s.LosersCanceled != 1 {
		t.Errorf("LosersCanceled = %d, want 1 (the slow primary)", s.LosersCanceled)
	}
	if s.Failovers != 0 {
		t.Errorf("Failovers = %d, want 0 — a hedge is not a failover", s.Failovers)
	}
}

// TestHedgeQuietWhenPrimaryFast: a fast primary answers before the hedge
// delay, so no hedge fires and no duplicate work reaches the secondary.
func TestHedgeQuietWhenPrimaryFast(t *testing.T) {
	t.Parallel()
	a := newFakeReplica(t, okDiagnose("a"))
	b := newFakeReplica(t, okDiagnose("b"))
	reps := []*fakeReplica{a, b}
	const svc = 3
	primary := byAffinity(fmt.Sprintf("svc:%d", svc), reps)[0]
	secondary := a
	if primary == a {
		secondary = b
	}

	rt := newTestRouter(t, []string{a.url(), b.url()}, Config{HedgeAfter: 250 * time.Millisecond})
	ts := httptest.NewServer(rt)
	defer ts.Close()

	body, _ := json.Marshal(analysis.DiagnoseRequest{ServiceID: svc, Landmarks: []int{0}, Features: []float64{1}})
	for i := 0; i < 5; i++ {
		if status, out := postJSON(t, ts.Client(), ts.URL+"/v1/diagnose", body); status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, out)
		}
	}
	if s := rt.Stats(); s.Hedges != 0 || s.HedgeWins != 0 || s.LosersCanceled != 0 {
		t.Errorf("fast primary still produced hedges: %+v", s)
	}
	if got := secondary.hits.Load(); got != 0 {
		t.Errorf("secondary served %d requests with no hedge fired", got)
	}
}

// TestHedgeDisabled: HedgeAfter < 0 switches hedging off even when the
// primary is slow — the client just waits.
func TestHedgeDisabled(t *testing.T) {
	t.Parallel()
	flaky := landmark.NewFlakyHandler(okDiagnose("a"), landmark.FlakyConfig{
		LatencyRate: 1, Latency: 120 * time.Millisecond, Seed: 1,
	})
	a := newFakeReplica(t, flaky)
	b := newFakeReplica(t, flaky)
	rt := newTestRouter(t, []string{a.url(), b.url()}, Config{HedgeAfter: -1})
	ts := httptest.NewServer(rt)
	defer ts.Close()

	start := time.Now()
	status, out := postJSON(t, ts.Client(), ts.URL+"/v1/diagnose", diagnoseFake(t))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, out)
	}
	if elapsed := time.Since(start); elapsed < 120*time.Millisecond {
		t.Errorf("answer in %v — something dodged the injected latency with hedging off", elapsed)
	}
	if s := rt.Stats(); s.Hedges != 0 {
		t.Errorf("Hedges = %d with hedging disabled", s.Hedges)
	}
}

// TestAdaptiveHedgeDelay exercises hedgeDelay's three regimes directly:
// seed default before enough samples, observed p90 after, HedgeMin floor.
func TestAdaptiveHedgeDelay(t *testing.T) {
	t.Parallel()
	a := newFakeReplica(t, okDiagnose("a"))
	rt := newTestRouter(t, []string{a.url()}, Config{
		HedgeDefault: 30 * time.Millisecond,
		HedgeMin:     5 * time.Millisecond,
	})

	if d := rt.hedgeDelay(); d != 30*time.Millisecond {
		t.Errorf("cold delay %v, want the 30ms default", d)
	}
	// The rule is "fewer than 20 samples": 19 keep the default, the 20th
	// switches to the observed p90 — all 20 sit in the (50,100] bucket, so
	// the interpolated rank 18 of 20 is exactly 95ms.
	for i := 0; i < 19; i++ {
		rt.latHist.Observe(80)
	}
	if d := rt.hedgeDelay(); d != 30*time.Millisecond {
		t.Errorf("delay on 19 samples %v, want the 30ms default", d)
	}
	rt.latHist.Observe(80)
	if d := rt.hedgeDelay(); d != 95*time.Millisecond {
		t.Errorf("delay on exactly 20 samples %v, want the 95ms p90", d)
	}
	// 100 samples at ~80ms: p90 ≈ 80ms.
	for i := 20; i < 100; i++ {
		rt.latHist.Observe(80)
	}
	if d := rt.hedgeDelay(); d < 60*time.Millisecond || d > 120*time.Millisecond {
		t.Errorf("warm delay %v, want ≈80ms (the observed p90)", d)
	}
	// A very fast tail floors at HedgeMin instead of hedging everything.
	rt2 := newTestRouter(t, []string{a.url()}, Config{HedgeMin: 5 * time.Millisecond})
	for i := 0; i < 100; i++ {
		rt2.latHist.Observe(0.01)
	}
	if d := rt2.hedgeDelay(); d != 5*time.Millisecond {
		t.Errorf("floored delay %v, want the 5ms HedgeMin", d)
	}
	// Fixed setting wins over everything.
	rt3 := newTestRouter(t, []string{a.url()}, Config{HedgeAfter: 70 * time.Millisecond})
	if d := rt3.hedgeDelay(); d != 70*time.Millisecond {
		t.Errorf("fixed delay %v, want 70ms", d)
	}
}

package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"diagnet/internal/analysis"
	"diagnet/internal/landmark"
)

// TestHedgeRescuesSlowPrimary is the deterministic hedging scenario from
// DESIGN.md §14: two replicas, whichever the router tries first shaped
// slow by a latency-injecting FlakyHandler (every request +400ms), a fixed
// 40ms hedging delay. Exactly one hedge fires, the fast secondary wins it,
// and the slow loser is canceled — the client sees a fast success, never
// the injected latency.
func TestHedgeRescuesSlowPrimary(t *testing.T) {
	t.Parallel()
	// Only the diagnose route is shaped (readiness stays clean — the probe
	// plane must not absorb the chaos meant for the data plane).
	script := &firstAttempted{
		primary: landmark.NewFlakyHandler(okDiagnose("slow"), landmark.FlakyConfig{LatencyRate: 1, Latency: 400 * time.Millisecond, Seed: 1}),
		other:   okDiagnose("fast"),
	}
	a, b := script.replica(t), script.replica(t)

	rt := newTestRouter(t, []string{a.url(), b.url()}, Config{
		HedgeAfter: 40 * time.Millisecond, // fixed: the test controls the timeline
	})
	ts := httptest.NewServer(rt)
	defer ts.Close()

	start := time.Now()
	status, out := postJSON(t, ts.Client(), ts.URL+"/v1/diagnose", diagnoseFake(t))
	elapsed := time.Since(start)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, out)
	}
	var resp analysis.DiagnoseResponse
	if err := json.Unmarshal(out, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ModelVersion != "fast" {
		t.Errorf("answer came from %q, want the fast secondary", resp.ModelVersion)
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
	script := &firstAttempted{primary: okDiagnose("a"), other: okDiagnose("b")}
	a, b := script.replica(t), script.replica(t)

	rt := newTestRouter(t, []string{a.url(), b.url()}, Config{HedgeAfter: 250 * time.Millisecond})
	ts := httptest.NewServer(rt)
	defer ts.Close()

	const n = 5
	for i := 0; i < n; i++ {
		if status, out := postJSON(t, ts.Client(), ts.URL+"/v1/diagnose", diagnoseFake(t)); status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, out)
		}
		if i == 0 { // only the first request's primary is known: it made it the script's
			secondary := a
			if script.first.Load() == a {
				secondary = b
			}
			if got := secondary.hits.Load(); got != 0 {
				t.Errorf("secondary served %d attempts of the first request with no hedge fired", got)
			}
		}
	}
	if s := rt.Stats(); s.Hedges != 0 || s.HedgeWins != 0 || s.LosersCanceled != 0 {
		t.Errorf("fast primary still produced hedges: %+v", s)
	}
	// Placement may move between the two as their latency estimates do,
	// but every request is exactly one attempt.
	if got := a.hits.Load() + b.hits.Load(); got != n {
		t.Errorf("replicas served %d attempts for %d requests with no hedge fired", got, n)
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
// the 25ms seed before enough samples, observed p90 after, the 1ms floor.
func TestAdaptiveHedgeDelay(t *testing.T) {
	t.Parallel()
	a := newFakeReplica(t, okDiagnose("a"))
	rt := newTestRouter(t, []string{a.url()}, Config{})

	if d := rt.hedgeDelay(); d != 25*time.Millisecond {
		t.Errorf("cold delay %v, want the 25ms default", d)
	}
	// The rule is "fewer than 20 samples": 19 keep the default, the 20th
	// switches to the observed p90 — all 20 sit in the (50,100] bucket, so
	// the interpolated rank 18 of 20 is exactly 95ms.
	for i := 0; i < 19; i++ {
		rt.latHist.Observe(80)
	}
	if d := rt.hedgeDelay(); d != 25*time.Millisecond {
		t.Errorf("delay on 19 samples %v, want the 25ms default", d)
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
	// A very fast tail floors at 1ms instead of hedging everything.
	rt2 := newTestRouter(t, []string{a.url()}, Config{})
	for i := 0; i < 100; i++ {
		rt2.latHist.Observe(0.01)
	}
	if d := rt2.hedgeDelay(); d != time.Millisecond {
		t.Errorf("floored delay %v, want the 1ms floor", d)
	}
	// Fixed setting wins over everything.
	rt3 := newTestRouter(t, []string{a.url()}, Config{HedgeAfter: 70 * time.Millisecond})
	if d := rt3.hedgeDelay(); d != 70*time.Millisecond {
		t.Errorf("fixed delay %v, want 70ms", d)
	}
}

// TestFailedAttemptsDoNotFeedLatency: a replica that fails or sheds in
// microseconds must not look like the fastest one to the placement
// tiebreak, nor drag the adaptive hedge delay's tail down. Only answers
// route treats as definitive are latency samples.
func TestFailedAttemptsDoNotFeedLatency(t *testing.T) {
	t.Parallel()
	for name, status := range map[string]int{"5xx": http.StatusInternalServerError, "429": http.StatusTooManyRequests} {
		t.Run(name, func(t *testing.T) {
			bad := newFakeReplica(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "no", status)
			}))
			// Slower than any loopback probe, so once it has served a request
			// the tiebreak ranks the instantly-failing replica first.
			good := newFakeReplica(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				time.Sleep(5 * time.Millisecond)
				okDiagnose("good")(w, r)
			}))
			rt := newTestRouter(t, []string{bad.url(), good.url()}, Config{
				HealthInterval:   time.Hour, // the boot sweep seeds both EWMAs; nothing else may move them
				BreakerThreshold: 1000,      // keep the failing replica in rotation
			})
			ts := httptest.NewServer(rt)
			defer ts.Close()
			badRep := rt.Pool().Replicas()[0]
			seeded := badRep.latencyMs()

			// 15 definitive answers keep the histogram under the 20 samples
			// hedgeDelay wants before it trusts the tail; counting the failed
			// attempts beside them would cross it.
			const n = 15
			for i := 0; i < n; i++ {
				if status, out := postJSON(t, ts.Client(), ts.URL+"/v1/diagnose", diagnoseFake(t)); status != http.StatusOK {
					t.Fatalf("request %d: status %d: %s", i, status, out)
				}
			}
			if bad.hits.Load() == 0 {
				t.Fatal("the failing replica was never tried")
			}
			if got := badRep.latencyMs(); got != seeded {
				t.Errorf("failing replica's latency EWMA moved %v → %v on %d failed attempts", seeded, got, bad.hits.Load())
			}
			if got := rt.latHist.Count(); got != n {
				t.Errorf("attempt histogram holds %d samples for %d definitive answers", got, n)
			}
			if d := rt.hedgeDelay(); d != 25*time.Millisecond {
				t.Errorf("hedge delay %v, want the 25ms default untouched", d)
			}
		})
	}
}

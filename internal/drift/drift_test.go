package drift

import (
	"math/rand"
	"testing"
)

// dist returns a one-hot-ish coarse distribution peaked at class k with
// the given confidence.
func dist(classes, k int, conf float64) []float64 {
	out := make([]float64, classes)
	rest := (1 - conf) / float64(classes-1)
	for i := range out {
		out[i] = rest
	}
	out[k] = conf
	return out
}

func TestStableStreamNotDrifted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDetector(7, Config{WindowSize: 100})
	feed := func(n int) {
		for i := 0; i < n; i++ {
			d.Observe(dist(7, rng.Intn(3), 0.8+0.1*rng.Float64()))
		}
	}
	feed(300)
	d.Freeze()
	feed(150)
	s := d.Status()
	if s.Drifted {
		t.Fatalf("stable stream flagged: %+v", s)
	}
	if s.PSI > 0.1 {
		t.Fatalf("PSI %v on identical distributions", s.PSI)
	}
}

func TestClassShiftDetected(t *testing.T) {
	d := NewDetector(7, Config{WindowSize: 100})
	for i := 0; i < 300; i++ {
		d.Observe(dist(7, 0, 0.9)) // reference: always class 0
	}
	d.Freeze()
	for i := 0; i < 150; i++ {
		d.Observe(dist(7, 4, 0.9)) // live: always class 4
	}
	s := d.Status()
	if !s.Drifted {
		t.Fatalf("class shift not detected: %+v", s)
	}
	if s.PSI <= 0.25 {
		t.Fatalf("PSI %v too small for a total shift", s.PSI)
	}
}

func TestConfidenceDropDetected(t *testing.T) {
	d := NewDetector(7, Config{WindowSize: 100, PSIThreshold: 10 /* disable PSI path */})
	for i := 0; i < 200; i++ {
		d.Observe(dist(7, 1, 0.95))
	}
	d.Freeze()
	for i := 0; i < 150; i++ {
		d.Observe(dist(7, 1, 0.4)) // same class, much less confident
	}
	s := d.Status()
	if !s.Drifted {
		t.Fatalf("confidence collapse not detected: %+v", s)
	}
	// Reference ≈ 0.95, live 0.4.
	if s.ConfidenceDelta < 0.5 || s.ConfidenceDelta > 0.6 {
		t.Fatalf("confidence delta wrong: %+v", s)
	}
}

func TestInsufficientData(t *testing.T) {
	d := NewDetector(7, Config{WindowSize: 100})
	d.Observe(dist(7, 0, 0.9))
	d.Freeze()
	d.Observe(dist(7, 0, 0.9))
	s := d.Status()
	if s.Drifted || s.Reason != "insufficient data" {
		t.Fatalf("%+v", s)
	}
}

func TestRingBufferEviction(t *testing.T) {
	d := NewDetector(3, Config{WindowSize: 10})
	for i := 0; i < 20; i++ {
		d.Observe(dist(3, 0, 0.9))
	}
	d.Freeze()
	// Fill the ring twice over with class 1; old class-1 entries must be
	// evicted, keeping counts == window size.
	for i := 0; i < 25; i++ {
		d.Observe(dist(3, 1, 0.9))
	}
	var total float64
	for _, c := range d.liveCounts {
		total += c
	}
	if total != 10 {
		t.Fatalf("live counts sum to %v, want window size 10", total)
	}
}

func TestObserveWrongWidthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewDetector(7, Config{}).Observe([]float64{1})
}

func TestPSIEdgeCases(t *testing.T) {
	if psi([]float64{0, 0}, []float64{1, 1}) != 0 {
		t.Fatal("empty reference should give 0")
	}
	if got := psi([]float64{5, 5}, []float64{7, 7}); got > 1e-9 {
		t.Fatalf("identical shapes give PSI %v", got)
	}
}

// TestResetAutoFreeze exercises the re-baselining path the continual plane
// uses after a promotion: Reset discards both windows, the new reference
// freezes itself after the configured count, and drift against the NEW
// baseline is detected while the legitimate model change is not.
func TestResetAutoFreeze(t *testing.T) {
	d := NewDetector(7, Config{WindowSize: 100})
	for i := 0; i < 200; i++ {
		d.Observe(dist(7, 0, 0.9))
	}
	d.Freeze()
	for i := 0; i < 150; i++ {
		d.Observe(dist(7, 4, 0.9))
	}
	if s := d.Status(); !s.Drifted {
		t.Fatalf("shift not detected before reset: %+v", s)
	}

	// Promotion: the new model legitimately predicts class 4.
	d.Reset()
	if s := d.Status(); s.Drifted || s.SamplesRef != 0 || s.SamplesLive != 0 {
		t.Fatalf("reset detector kept drift or samples: %+v", s)
	}
	for i := 0; i < 100; i++ {
		d.Observe(dist(7, 4, 0.9)) // becomes the new reference
	}
	// Frozen after one window: the next observation is live.
	d.Observe(dist(7, 4, 0.9))
	if s := d.Status(); s.SamplesRef != 100 || s.SamplesLive != 1 {
		t.Fatalf("auto-freeze did not fire after 100 observations: %+v", s)
	}
	for i := 0; i < 149; i++ {
		d.Observe(dist(7, 4, 0.9))
	}
	if s := d.Status(); s.Drifted {
		t.Fatalf("stable post-promotion stream flagged: %+v", s)
	}
	for i := 0; i < 150; i++ {
		d.Observe(dist(7, 1, 0.9))
	}
	if s := d.Status(); !s.Drifted {
		t.Fatalf("drift against the new baseline not detected: %+v", s)
	}
}

package serving

import (
	"context"
	"sync"
	"testing"
	"time"
)

// TestInstallShadowSemantics pins the registry-side shadow contract:
// unknown versions and the active version are rejected, installs replace
// each other, promotion of the candidate clears the shadow slot.
func TestInstallShadowSemantics(t *testing.T) {
	m, _ := fixture(t)
	e := newEngine(t, Config{})
	r := e.Registry()

	if err := r.InstallShadow("ghost"); err == nil {
		t.Fatal("unknown version accepted as shadow")
	}
	if err := r.InstallShadow("boot"); err == nil {
		t.Fatal("active version accepted as shadow")
	}
	if err := r.AddModel("cand", m); err != nil {
		t.Fatal(err)
	}
	if err := r.InstallShadow("cand"); err != nil {
		t.Fatal(err)
	}
	if got := r.ShadowVersion(); got != "cand" {
		t.Fatalf("shadow version %q, want cand", got)
	}
	if err := r.Promote("cand"); err != nil {
		t.Fatal(err)
	}
	if got := r.ShadowVersion(); got != "" {
		t.Fatalf("shadow %q survived its own promotion", got)
	}

	if err := r.AddModel("cand2", m); err != nil {
		t.Fatal(err)
	}
	if err := r.InstallShadow("cand2"); err != nil {
		t.Fatal(err)
	}
	r.DropShadow()
	if got := r.ShadowVersion(); got != "" {
		t.Fatalf("shadow %q survived DropShadow", got)
	}
}

// TestShadowTeeDeliversObservations runs live traffic with a full tee and
// checks every served request produces one incumbent-vs-candidate
// observation with sane fields — and that the tee agrees with itself when
// the candidate is the same model.
func TestShadowTeeDeliversObservations(t *testing.T) {
	m, test := fixture(t)
	e := newEngine(t, Config{BatchMax: 4, Workers: 2})
	if err := e.Registry().AddModel("cand", m); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().InstallShadow("cand"); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var got []ShadowObservation
	e.SetShadowObserver(func(o ShadowObservation) {
		mu.Lock()
		got = append(got, o)
		mu.Unlock()
	})
	e.SetShadowTee(1)

	deg := test.Degraded()
	n := deg.Len()
	if n > 16 {
		n = 16
	}
	for i := 0; i < n; i++ {
		s := &deg.Samples[i]
		if _, err := e.SubmitWait(context.Background(), &Request{
			ServiceID: s.Service,
			Layout:    test.Layout,
			Features:  s.Features,
		}); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		cnt := len(got)
		mu.Unlock()
		if cnt >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("observer saw %d observations, want %d", cnt, n)
		}
		time.Sleep(5 * time.Millisecond)
	}

	mu.Lock()
	defer mu.Unlock()
	for _, o := range got {
		if o.IncumbentVersion != "boot" || o.ShadowVersion != "cand" {
			t.Fatalf("versions %q/%q, want boot/cand", o.IncumbentVersion, o.ShadowVersion)
		}
		if len(o.Incumbent) == 0 || len(o.Shadow) == 0 {
			t.Fatal("empty coarse distribution in observation")
		}
		// Same weights on both sides: identical predictions, so Agree.
		if !o.Agree {
			t.Fatal("identical candidate disagreed with incumbent")
		}
	}
	if s := e.Stats(); s.ShadowTeed < int64(n) {
		t.Fatalf("stats teed %d, want >= %d", s.ShadowTeed, n)
	}
}

// TestShadowTeeFractionSampling checks threshold sampling keeps the teed
// share near the configured fraction and that a zero fraction tees
// nothing.
func TestShadowTeeFractionSampling(t *testing.T) {
	m, test := fixture(t)
	e := newEngine(t, Config{BatchMax: 1, Workers: 1})
	if err := e.Registry().AddModel("cand", m); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().InstallShadow("cand"); err != nil {
		t.Fatal(err)
	}

	deg := test.Degraded()
	req := func(i int) *Request {
		s := &deg.Samples[i%deg.Len()]
		return &Request{ServiceID: s.Service, Layout: test.Layout, Features: s.Features}
	}

	// Fraction 0: nothing reaches the tee.
	for i := 0; i < 10; i++ {
		if _, err := e.SubmitWait(context.Background(), req(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.Stats(); s.ShadowTeed != 0 {
		t.Fatalf("teed %d with tee disabled", s.ShadowTeed)
	}

	e.SetShadowTee(0.25)
	const total = 200
	for i := 0; i < total; i++ {
		if _, err := e.SubmitWait(context.Background(), req(i)); err != nil {
			t.Fatal(err)
		}
	}
	teed, dropped := e.shadowStats()
	sent := teed + dropped // samples the tee chose, whether or not queued
	if sent == 0 {
		t.Fatal("fraction 0.25 teed nothing")
	}
	// Threshold sampling over ~210 singleton groups should land well
	// inside [10%, 40%] for a 25% target.
	lo, hi := int64(total/10), int64(2*total/5)
	if sent < lo || sent > hi {
		t.Fatalf("teed %d of %d (target 25%%), outside [%d, %d]", sent, total, lo, hi)
	}
}

// TestShadowSurvivesPanickingObserver checks a panicking shadow pass is
// contained: the executor keeps draining and the serving path is
// untouched.
func TestShadowSurvivesPanickingObserver(t *testing.T) {
	m, test := fixture(t)
	e := newEngine(t, Config{BatchMax: 1, Workers: 1})
	if err := e.Registry().AddModel("cand", m); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().InstallShadow("cand"); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	calls := 0
	e.SetShadowObserver(func(ShadowObservation) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n == 1 {
			panic("observer bug")
		}
	})
	e.SetShadowTee(1)

	deg := test.Degraded()
	for i := 0; i < 6; i++ {
		s := &deg.Samples[i%deg.Len()]
		if _, err := e.SubmitWait(context.Background(), &Request{
			ServiceID: s.Service, Layout: test.Layout, Features: s.Features,
		}); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		n := calls
		mu.Unlock()
		if n >= 2 {
			return // executor survived the first panic and kept delivering
		}
		if time.Now().After(deadline) {
			t.Fatalf("observer called %d times; executor did not survive panic", n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

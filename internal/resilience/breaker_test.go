package resilience

import (
	"sync"
	"testing"
	"time"
)

// fakeClock is a manually advanced time source.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func newTestBreaker(threshold int, cooldown time.Duration) (*Breaker, *fakeClock) {
	clk := &fakeClock{now: time.Unix(1700000000, 0)}
	return NewBreaker(BreakerConfig{FailureThreshold: threshold, Cooldown: cooldown, Now: clk.Now}), clk
}

func TestBreakerOpensAfterThreshold(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)
	for i := 0; i < 2; i++ {
		b.Failure()
		if st, ok := b.Allow(); !ok || st != Closed {
			t.Fatalf("closed breaker refused traffic after %d failures", i+1)
		}
	}
	b.Failure() // third consecutive failure
	if st, ok := b.Allow(); ok || st != Open {
		t.Fatalf("breaker not open after threshold: state=%v ok=%v", st, ok)
	}
}

func TestBreakerSuccessResetsStreak(t *testing.T) {
	b, _ := newTestBreaker(3, time.Minute)
	b.Failure()
	b.Failure()
	b.Success()
	b.Failure()
	b.Failure()
	if st, ok := b.Allow(); !ok || st != Closed {
		t.Fatalf("streak not reset by success: state=%v", st)
	}
	if b.ConsecutiveFailures() != 2 {
		t.Fatalf("streak %d", b.ConsecutiveFailures())
	}
}

func TestBreakerHalfOpenRecovery(t *testing.T) {
	b, clk := newTestBreaker(2, time.Minute)
	b.Failure()
	b.Failure()
	if _, ok := b.Allow(); ok {
		t.Fatal("open breaker admitted traffic")
	}
	// Cooldown not elapsed: still refused.
	clk.Advance(30 * time.Second)
	if _, ok := b.Allow(); ok {
		t.Fatal("cooldown not over but trial admitted")
	}
	clk.Advance(31 * time.Second)
	st, ok := b.Allow()
	if !ok || st != HalfOpen {
		t.Fatalf("want half-open trial, got state=%v ok=%v", st, ok)
	}
	// While the trial is in flight, nobody else gets through.
	if _, ok := b.Allow(); ok {
		t.Fatal("second caller admitted during half-open trial")
	}
	b.Success()
	if st, ok := b.Allow(); !ok || st != Closed {
		t.Fatalf("breaker not closed after successful trial: %v", st)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	b, clk := newTestBreaker(1, time.Minute)
	b.Failure()
	clk.Advance(61 * time.Second)
	if st, ok := b.Allow(); !ok || st != HalfOpen {
		t.Fatalf("want half-open, got %v/%v", st, ok)
	}
	b.Failure() // trial failed → full cooldown again
	if _, ok := b.Allow(); ok {
		t.Fatal("breaker admitted traffic right after failed trial")
	}
	clk.Advance(59 * time.Second)
	if _, ok := b.Allow(); ok {
		t.Fatal("cooldown restarted incompletely")
	}
	clk.Advance(2 * time.Second)
	if st, ok := b.Allow(); !ok || st != HalfOpen {
		t.Fatalf("want second trial, got %v/%v", st, ok)
	}
	b.Success()
	if b.State() != Closed {
		t.Fatal("not closed after recovery")
	}
}

// TestBreakerReleaseGivesNoVerdict: a trial whose caller canceled it
// frees the half-open slot for the next caller without closing the
// breaker or resetting its failure streak, and Release in Closed leaves
// the streak as it was.
func TestBreakerReleaseGivesNoVerdict(t *testing.T) {
	b, clk := newTestBreaker(1, time.Minute)
	b.Failure()
	clk.Advance(61 * time.Second)
	if st, ok := b.Allow(); !ok || st != HalfOpen {
		t.Fatalf("want half-open trial, got %v/%v", st, ok)
	}
	b.Release()
	if st := b.State(); st != HalfOpen {
		t.Fatalf("state %v after a released trial, want half-open", st)
	}
	if n := b.ConsecutiveFailures(); n != 1 {
		t.Fatalf("streak %d after a released trial, want 1", n)
	}
	if st, ok := b.Allow(); !ok || st != HalfOpen {
		t.Fatalf("released slot not handed to the next caller: %v/%v", st, ok)
	}
	if _, ok := b.Allow(); ok {
		t.Fatal("a second trial admitted while the new one is in flight")
	}

	c, _ := newTestBreaker(3, time.Minute)
	c.Failure()
	c.Release()
	if st, n := c.State(), c.ConsecutiveFailures(); st != Closed || n != 1 {
		t.Fatalf("Release in Closed moved the breaker: state %v, streak %d", st, n)
	}
}

func TestBreakerStateReporting(t *testing.T) {
	b, clk := newTestBreaker(1, time.Minute)
	if b.State() != Closed {
		t.Fatal("fresh breaker not closed")
	}
	b.Failure()
	if b.State() != Open {
		t.Fatal("not open")
	}
	clk.Advance(2 * time.Minute)
	// State peeks without consuming the trial slot.
	if b.State() != HalfOpen {
		t.Fatal("cooldown elapsed but State not half-open")
	}
	if st, ok := b.Allow(); !ok || st != HalfOpen {
		t.Fatalf("State() consumed the trial slot: %v/%v", st, ok)
	}
}

func TestBreakerConcurrentTrialExclusion(t *testing.T) {
	b, clk := newTestBreaker(1, time.Second)
	b.Failure()
	clk.Advance(2 * time.Second)
	var admitted int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, ok := b.Allow(); ok {
				mu.Lock()
				admitted++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if admitted != 1 {
		t.Fatalf("%d goroutines admitted to the half-open trial, want 1", admitted)
	}
}

func TestBreakerStateString(t *testing.T) {
	if Closed.String() != "closed" || Open.String() != "open" || HalfOpen.String() != "half-open" {
		t.Fatal("state names wrong")
	}
}

func TestEWMA(t *testing.T) {
	e := NewEWMA(0.5)
	if e.Value() != 0 {
		t.Fatal("fresh EWMA not zero")
	}
	e.Observe(100)
	if e.Value() != 100 {
		t.Fatalf("first observation not adopted: %v", e.Value())
	}
	e.Observe(50)
	if v := e.Value(); v != 75 {
		t.Fatalf("EWMA %v, want 75", v)
	}
	// Invalid alpha falls back rather than panicking.
	if NewEWMA(7) == nil {
		t.Fatal("nil EWMA")
	}
}

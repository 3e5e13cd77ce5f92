package resilience

import (
	"errors"
	"sync"
	"time"
)

// BreakerState is the circuit breaker's position.
type BreakerState int

const (
	// Closed: traffic flows normally.
	Closed BreakerState = iota
	// Open: traffic is refused until the cooldown elapses.
	Open
	// HalfOpen: one trial request is probing whether the target recovered.
	HalfOpen
)

// String returns the state name.
func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// ErrCircuitOpen is returned (or wrapped) when a breaker refuses traffic.
var ErrCircuitOpen = errors.New("resilience: circuit open")

// BreakerConfig tunes a circuit breaker.
type BreakerConfig struct {
	// FailureThreshold is how many consecutive failures open the circuit
	// (default 3).
	FailureThreshold int
	// Cooldown is how long the circuit stays open before letting one
	// half-open trial through (default 30s).
	Cooldown time.Duration
	// Now substitutes a fake clock in tests (default time.Now).
	Now func() time.Time
	// OnTransition, when non-nil, is invoked after every state change
	// (telemetry hooks). It is called outside the breaker's lock and must
	// be safe for concurrent use.
	OnTransition func(from, to BreakerState)
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 30 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Breaker is a per-target circuit breaker: consecutive failures beyond the
// threshold open it; after a cooldown a single half-open trial decides
// whether it closes again (probe-through recovery). Safe for concurrent
// use.
type Breaker struct {
	cfg BreakerConfig

	mu          sync.Mutex
	state       BreakerState
	consecFails int
	openedAt    time.Time
	trialActive bool // a half-open trial is in flight
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults()}
}

// transition switches the state under the lock and returns the hook call
// to make after unlocking (nil when the state did not change).
func (b *Breaker) transition(to BreakerState) func() {
	from := b.state
	b.state = to
	if from == to || b.cfg.OnTransition == nil {
		return nil
	}
	hook := b.cfg.OnTransition
	return func() { hook(from, to) }
}

// Allow reports whether a request may proceed and under which state.
// When it returns (HalfOpen, true) the caller holds the single trial slot
// and MUST settle it via Success, Failure or Release (other callers are
// refused meanwhile).
func (b *Breaker) Allow() (BreakerState, bool) {
	b.mu.Lock()
	var notify func()
	defer func() {
		b.mu.Unlock()
		if notify != nil {
			notify()
		}
	}()
	switch b.state {
	case Closed:
		return Closed, true
	case Open:
		if b.cfg.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
			notify = b.transition(HalfOpen)
			b.trialActive = true
			return HalfOpen, true
		}
		return Open, false
	case HalfOpen:
		if b.trialActive {
			return HalfOpen, false // someone else holds the trial slot
		}
		b.trialActive = true
		return HalfOpen, true
	}
	return b.state, false
}

// Success records a successful request, closing the circuit.
func (b *Breaker) Success() {
	b.mu.Lock()
	notify := b.transition(Closed)
	b.consecFails = 0
	b.trialActive = false
	b.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// Failure records a failed request; it may open the circuit.
func (b *Breaker) Failure() {
	b.mu.Lock()
	var notify func()
	b.consecFails++
	switch b.state {
	case HalfOpen:
		// The trial failed: back to a full cooldown.
		notify = b.transition(Open)
		b.openedAt = b.cfg.Now()
		b.trialActive = false
	case Closed:
		if b.consecFails >= b.cfg.FailureThreshold {
			notify = b.transition(Open)
			b.openedAt = b.cfg.Now()
		}
	}
	b.mu.Unlock()
	if notify != nil {
		notify()
	}
}

// Release settles a request that ended without a verdict — its caller
// canceled it, which says nothing about the target's health: a held
// half-open trial slot is freed for the next Allow, and the state and the
// failure streak stay as they are. In Closed it does nothing.
func (b *Breaker) Release() {
	b.mu.Lock()
	if b.state == HalfOpen {
		b.trialActive = false
	}
	b.mu.Unlock()
}

// State returns the current position without consuming a trial slot.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == Open && b.cfg.Now().Sub(b.openedAt) >= b.cfg.Cooldown {
		return HalfOpen // would admit a trial
	}
	return b.state
}

// ConsecutiveFailures returns the current failure streak.
func (b *Breaker) ConsecutiveFailures() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.consecFails
}

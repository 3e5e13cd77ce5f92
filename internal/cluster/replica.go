package cluster

import (
	"sync/atomic"
	"time"

	"diagnet/internal/resilience"
)

// Replica is one diagnetd instance behind the router: its base URL plus
// the health state the routing policy reads — readiness (from the active
// /readyz sweep), a circuit breaker fed by live request outcomes, an EWMA
// of attempt latency, the in-flight count for least-loaded placement, and
// the backpressure window a 429's Retry-After opened.
type Replica struct {
	name string // base URL

	breaker *resilience.Breaker
	lat     *resilience.EWMA // attempt latency, milliseconds

	outstanding atomic.Int64
	healthy     atomic.Bool
	loadedUntil atomic.Int64 // unix nanos; 0 = not loaded
	transitions atomic.Int64 // health flips, for the snapshot
}

// newReplica builds a replica in the unknown-health state (the first
// sweep decides).
func newReplica(name string, cfg Config) *Replica {
	return &Replica{
		name: name,
		breaker: resilience.NewBreaker(resilience.BreakerConfig{
			FailureThreshold: cfg.BreakerThreshold,
			Cooldown:         cfg.BreakerCooldown,
			Now:              cfg.Now,
			OnTransition: func(from, to resilience.BreakerState) {
				mBreakerTransitions.Inc()
			},
		}),
		lat: resilience.NewEWMA(0.3),
	}
}

// Name returns the replica's base URL.
func (r *Replica) Name() string { return r.name }

// Healthy reports the last /readyz verdict.
func (r *Replica) Healthy() bool { return r.healthy.Load() }

// setHealthy records a sweep verdict, reporting whether it flipped.
func (r *Replica) setHealthy(v bool) bool {
	if r.healthy.Swap(v) == v {
		return false
	}
	r.transitions.Add(1)
	return true
}

// loaded reports whether the replica is inside a 429 backpressure window.
func (r *Replica) loaded(now time.Time) bool {
	return now.UnixNano() < r.loadedUntil.Load()
}

// markLoaded parks the replica until now+d (its advertised Retry-After):
// the router honors the replica's own recovery estimate instead of
// retrying into a queue the replica just said is full.
func (r *Replica) markLoaded(now time.Time, d time.Duration) {
	r.loadedUntil.Store(now.Add(d).UnixNano())
}

// Outstanding returns the in-flight attempt count.
func (r *Replica) Outstanding() int64 { return r.outstanding.Load() }

// latencyMs returns the attempt-latency EWMA (0 before any sample).
func (r *Replica) latencyMs() float64 { return r.lat.Value() }

// ReplicaStatus is one replica's externally visible state (GET
// /v1/replicas).
type ReplicaStatus struct {
	Name        string  `json:"name"`
	Healthy     bool    `json:"healthy"`
	Loaded      bool    `json:"loaded"`
	Breaker     string  `json:"breaker"`
	Outstanding int64   `json:"outstanding"`
	LatencyMs   float64 `json:"latency_ms"`
	Transitions int64   `json:"health_transitions"`
}

// status snapshots the replica.
func (r *Replica) status(now time.Time) ReplicaStatus {
	return ReplicaStatus{
		Name:        r.name,
		Healthy:     r.healthy.Load(),
		Loaded:      r.loaded(now),
		Breaker:     r.breaker.State().String(),
		Outstanding: r.outstanding.Load(),
		LatencyMs:   r.lat.Value(),
		Transitions: r.transitions.Load(),
	}
}

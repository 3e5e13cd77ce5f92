package cluster

import (
	"context"
	"log/slog"
	"net/http"
	"sort"
	"sync"
	"time"

	"diagnet/internal/resilience"
	"diagnet/internal/telemetry"
)

// Pool is the health-checked replica set. A background sweep probes every
// replica's /readyz on HealthInterval; selection (Ranked) combines that
// readiness verdict with breaker state, backpressure windows and live
// load. Safe for concurrent use.
type Pool struct {
	cfg      Config
	client   *http.Client
	replicas []*Replica

	stopSweep func() // ends the background sweeper and awaits it
}

// NewPool builds a pool over the given base URLs and runs one synchronous
// readiness sweep (so a freshly built pool can route immediately) before
// starting the background sweeper. Call Close to stop it.
func NewPool(urls []string, cfg Config) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{
		cfg: cfg,
		client: &http.Client{
			Timeout:   healthTimeout,
			Transport: cfg.Transport,
		},
	}
	for _, u := range urls {
		p.replicas = append(p.replicas, newReplica(u, cfg))
	}
	p.sweep()
	p.stopSweep = every(cfg.HealthInterval, p.sweep)
	return p
}

// every runs fn on a ticker until the returned stop is called; stop awaits
// the loop (and an fn in flight) and is idempotent.
func every(d time.Duration, fn func()) (stop func()) {
	quit, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(d)
		defer t.Stop()
		for {
			select {
			case <-quit:
				return
			case <-t.C:
				fn()
			}
		}
	}()
	return sync.OnceFunc(func() { close(quit); <-done })
}

// Close stops the health sweeper and releases the probe client's idle
// connections. Idempotent.
func (p *Pool) Close() {
	p.stopSweep()
	p.client.CloseIdleConnections()
}

// Replicas returns the pool members (fixed at construction).
func (p *Pool) Replicas() []*Replica { return p.replicas }

// healthyCount returns how many replicas passed their last readiness
// probe.
func (p *Pool) healthyCount() int {
	n := 0
	for _, r := range p.replicas {
		if r.Healthy() {
			n++
		}
	}
	return n
}

// Status snapshots every replica (GET /v1/replicas).
func (p *Pool) Status() []ReplicaStatus {
	now := p.cfg.Now()
	out := make([]ReplicaStatus, len(p.replicas))
	for i, r := range p.replicas {
		out[i] = r.status(now)
	}
	return out
}

// sweep probes every replica's /readyz concurrently. 2xx marks it ready;
// anything else — 503 while recovering or draining, connection refused
// after a crash — takes it out of rotation until a later sweep succeeds.
func (p *Pool) sweep() {
	var wg sync.WaitGroup
	for _, r := range p.replicas {
		wg.Add(1)
		go func(r *Replica) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), healthTimeout)
			defer cancel()
			ok := p.check(ctx, r)
			if r.setHealthy(ok) {
				if ok {
					mHealthUp.Inc()
					slog.Info("cluster: replica ready", "replica", r.name)
				} else {
					mHealthDown.Inc()
					slog.Warn("cluster: replica out of rotation", "replica", r.name)
				}
			}
		}(r)
	}
	wg.Wait()
}

// check runs one readiness probe.
func (p *Pool) check(ctx context.Context, r *Replica) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, r.name+"/readyz", nil)
	if err != nil {
		return false
	}
	start := time.Now()
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	// Drained, not just closed: the 503's error text, say, would otherwise
	// cost the keep-alive connection at sweep cadence.
	resilience.DrainClose(resp.Body, 4<<10)
	if resp.StatusCode >= 200 && resp.StatusCode < 300 {
		// Seed the latency EWMA so a replica that was idle since boot still
		// has a (rough) latency estimate when selection tiebreaks on it.
		r.lat.Observe(telemetry.Millis(time.Since(start)))
		return true
	}
	return false
}

// Ranked returns the candidate replicas for a request, best first:
// fewest attempts in flight, the latency EWMA as tiebreak. The base set is
// the ready replicas whose breaker is not open and whose 429 window has
// passed; if that leaves nothing, loaded/open replicas are readmitted (a
// parked replica beats a refusal), and as a last resort — before the
// first sweep, or in a total blackout — every replica is tried.
func (p *Pool) Ranked() []*Replica {
	now := p.cfg.Now()
	var avail, ready []*Replica
	for _, r := range p.replicas {
		if !r.Healthy() {
			continue
		}
		ready = append(ready, r)
		if r.loaded(now) || r.breaker.State() == resilience.Open {
			continue
		}
		avail = append(avail, r)
	}
	list := avail
	if len(list) == 0 {
		list = ready
	}
	if len(list) == 0 {
		list = p.replicas
	}
	out := append([]*Replica(nil), list...)
	sort.SliceStable(out, func(i, j int) bool {
		oi, oj := out[i].Outstanding(), out[j].Outstanding()
		if oi != oj {
			return oi < oj
		}
		return out[i].latencyMs() < out[j].latencyMs()
	})
	return out
}

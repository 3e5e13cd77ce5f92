package cluster

import (
	"context"
	"hash/fnv"
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

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// NewPool builds a pool over the given base URLs and runs one synchronous
// readiness sweep (so a freshly built pool can route immediately) before
// starting the background sweeper. Call Close to stop it.
func NewPool(urls []string, cfg Config) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{
		cfg: cfg,
		client: &http.Client{
			Timeout:   cfg.HealthTimeout,
			Transport: cfg.Transport,
		},
		stop: make(chan struct{}),
	}
	for _, u := range urls {
		p.replicas = append(p.replicas, newReplica(u, cfg))
	}
	p.sweep()
	p.wg.Add(1)
	go p.run()
	return p
}

// Close stops the health sweeper and releases the probe client's idle
// connections. Idempotent.
func (p *Pool) Close() {
	p.stopOnce.Do(func() { close(p.stop) })
	p.wg.Wait()
	p.client.CloseIdleConnections()
}

// Replicas returns the pool members (fixed at construction).
func (p *Pool) Replicas() []*Replica { return p.replicas }

// HealthyCount returns how many replicas passed their last readiness
// probe.
func (p *Pool) HealthyCount() int {
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

// run sweeps readiness until Close.
func (p *Pool) run() {
	defer p.wg.Done()
	t := time.NewTicker(p.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			p.sweep()
		}
	}
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
			ctx, cancel := context.WithTimeout(context.Background(), p.cfg.HealthTimeout)
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

// rendezvous scores a (key, replica) pair for highest-random-weight
// hashing: every router instance ranks replicas identically for a key,
// and removing a replica only reassigns that replica's keys.
func rendezvous(key, name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(key))
	h.Write([]byte{0})
	h.Write([]byte(name))
	return h.Sum64()
}

// Ranked returns the candidate replicas for a request, best first. The
// base set is the ready replicas whose breaker is not open and whose 429
// window has passed; if that leaves nothing, loaded/open replicas are
// readmitted (a parked replica beats a refusal), and as a last resort —
// before the first sweep, or in a total blackout — every replica is
// tried.
//
// With a non-empty affinity key the set is ordered by rendezvous hash and
// the top two are swapped into least-loaded-first order (pick-two: the
// hash names the pair, load picks within it). Without a key, plain
// least-loaded order with the latency EWMA as tiebreak.
func (p *Pool) Ranked(key string) []*Replica {
	now := p.cfg.Now()
	var avail, ready []*Replica
	for _, r := range p.replicas {
		if !r.Healthy() {
			continue
		}
		ready = append(ready, r)
		if r.Loaded(now) || r.breaker.State() == resilience.Open {
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
	if key != "" && !p.cfg.NoAffinity {
		sort.SliceStable(out, func(i, j int) bool {
			return rendezvous(key, out[i].name) > rendezvous(key, out[j].name)
		})
		if len(out) >= 2 && out[1].Outstanding() < out[0].Outstanding() {
			out[0], out[1] = out[1], out[0]
		}
		return out
	}
	sort.SliceStable(out, func(i, j int) bool {
		oi, oj := out[i].Outstanding(), out[j].Outstanding()
		if oi != oj {
			return oi < oj
		}
		return out[i].LatencyMs() < out[j].LatencyMs()
	})
	return out
}

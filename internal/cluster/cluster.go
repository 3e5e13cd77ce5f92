// Package cluster is DiagNet's replicated serving tier: a front-end
// router (cmd/diagnet-router) that fans client traffic across N diagnetd
// replicas, turning the single-process analysis service into the
// horizontally scaled localization tier an Internet-scale deployment
// needs (§II "heavy traffic from millions of users"; NetRCA-style
// replicated localization).
//
// The routing policy has four pillars (DESIGN.md §14):
//
//   - Placement from health and load alone. Every replica is actively
//     probed on its /readyz endpoint; a replica that is recovering,
//     draining or dead takes no traffic, and a circuit breaker fed by live
//     request outcomes catches what a readiness probe is too slow or too
//     coarse to see. Among the rest a request goes to the replica with the
//     fewest attempts in flight, the attempt-latency EWMA breaking ties.
//     There is no service affinity: every serving worker of every replica
//     holds all heads over one trunk in one bundle session, warmed before
//     the bundle is promoted (DESIGN.md §8, §11), so no replica answers a
//     service warmer than another and the router reads no request body to
//     place it.
//
//   - Tail-latency hedging. If the chosen replica has not answered after a
//     p9x-derived delay, the router issues a duplicate to the next
//     candidate; the first answer wins and the loser is canceled. The
//     serving engine sheds the canceled duplicate before it consumes a
//     batch slot (serving.Stats.ShedCanceled), so hedges trade a little
//     admission work for a lot of tail latency.
//
//   - Scatter-gather batches. A large /v1/diagnose-batch is split on
//     element boundaries into contiguous chunks across the ready replicas,
//     executed in parallel, and merged back in request order — each
//     element forwarded as the bytes it arrived in, never decoded.
//
//   - Backpressure propagation. A replica's 429 is honored, never blindly
//     retried against the same replica: the advertised Retry-After parks
//     the replica for its own stated recovery window, and only when every
//     replica is loaded does the 429 (with the advice) reach the client.
//
// Every hop is traced (router route → replica attempt → hedge) with W3C
// traceparent propagation into the replicas, and counted in
// internal/telemetry; the router serves /healthz, /readyz, /v1/metrics
// (JSON) and /metrics (text) like the other daemons.
package cluster

import (
	"errors"
	"net/http"
	"time"
)

// maxBody bounds request and proxied response bodies (mirrors the
// analysis plane's 8 MiB request bound).
const maxBody = 8 << 20

// maxBatch bounds a single batch request (mirrors the analysis plane).
const maxBatch = 1024

// What no deployment has had a reason to tune: constants, not knobs.
const (
	hedgeDefault   = 25 * time.Millisecond // adaptive hedge delay until the attempt histogram holds 20 samples
	hedgeMin       = time.Millisecond      // its floor afterwards: a fast tail must not hedge every request
	healthTimeout  = time.Second           // one readiness probe
	loadedFallback = time.Second           // park of a 429-ing replica that sent no Retry-After
	batchChunk     = 8                     // smallest scatter chunk: at most ceil(len/batchChunk) chunks a batch
)

// errNoReplicas reports that no replica could take the request: none are
// ready, or every candidate's circuit is open.
var errNoReplicas = errors.New("cluster: no replica available")

// Config tunes a Router. The zero value selects the documented defaults.
type Config struct {
	// HedgeAfter is the hedging delay: how long the first attempt may run
	// before a duplicate is issued to the next replica. Zero derives the
	// delay from the observed attempt-latency tail (p90 once enough
	// samples exist, 25ms before that, never under 1ms); a negative value
	// disables hedging.
	HedgeAfter time.Duration
	// HealthInterval is the /readyz sweep period (default 500ms).
	HealthInterval time.Duration
	// AttemptTimeout bounds one proxied attempt (default 30s).
	AttemptTimeout time.Duration
	// Breaker tunes the per-replica circuit breakers. The zero value uses
	// a threshold of 3 consecutive failures and a 5s cooldown — shorter
	// than the probing plane's default because a replica behind a router
	// also has a readiness probe vouching for its recovery.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Transport overrides the outbound round tripper (tests).
	Transport http.RoundTripper
	// Now substitutes a fake clock in tests (default time.Now).
	Now func() time.Time
	// Obs configures the fleet observability plane: metric federation and
	// SLO burn-rate alerting. The zero value disables it.
	Obs ObsConfig
}

// defaultTransport is the router's outbound transport: DefaultTransport
// semantics with a per-replica idle pool sized for fan-in. The stock
// transport keeps only 2 idle connections per host, so under concurrent
// load nearly every proxied attempt would pay a fresh TCP handshake —
// measured as ~3× p99 inflation in BenchmarkRouter before this existed.
func defaultTransport() http.RoundTripper {
	t, ok := http.DefaultTransport.(*http.Transport)
	if !ok {
		return http.DefaultTransport
	}
	t = t.Clone()
	t.MaxIdleConns = 1024
	t.MaxIdleConnsPerHost = 256
	return t
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.HealthInterval <= 0 {
		c.HealthInterval = 500 * time.Millisecond
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = 30 * time.Second
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.Transport == nil {
		c.Transport = defaultTransport()
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Stats is a point-in-time view of the router's hedging and failover
// counters (the full picture, per-route latencies included, is in the
// telemetry registry served by /v1/metrics).
type Stats struct {
	// Hedges counts hedge duplicates actually issued.
	Hedges int64 `json:"hedges"`
	// HedgeWins counts requests the hedge duplicate answered first.
	HedgeWins int64 `json:"hedge_wins"`
	// LosersCanceled counts in-flight attempts canceled because another
	// attempt won (hedge losers and overtaken failovers).
	LosersCanceled int64 `json:"losers_canceled"`
	// Failovers counts attempts relaunched on another replica after a
	// transient failure.
	Failovers int64 `json:"failovers"`
	// Backpressure counts replica 429s honored (replica parked for its
	// advertised Retry-After).
	Backpressure int64 `json:"backpressure"`
}

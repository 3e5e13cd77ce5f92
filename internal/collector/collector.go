// Package collector implements the client-side agent of Fig. 1: a client
// that periodically probes its landmarks, tracks per-feature baselines
// online, keeps a bounded history window, and emits a diagnosis request
// when its QoE degrades. The paper's prototype runs this loop inside an
// automated Chromium browser (§IV-A-c); here it is a plain Go agent over a
// pluggable measurement source (the simulator or the live HTTP prober).
package collector

import (
	"context"
	"fmt"
	"log"
	"math"
	"sync/atomic"
	"time"

	"diagnet/internal/stats"
	"diagnet/internal/telemetry"
)

// Collector metrics (DESIGN.md §10), shared by every agent in the process
// — a deployment running several agents sums into one event budget.
var (
	mSteps   = telemetry.Default().Counter("collector.steps")
	mEvents  = telemetry.Default().Counter("collector.events")
	mDropped = telemetry.Default().Counter("collector.dropped")
)

// Source abstracts where measurements come from: the simulator, a live
// prober, or a replayed trace.
type Source interface {
	// Sample returns the raw feature vector observed at a tick.
	Sample(tick int64) []float64
	// Degraded reports whether the client's QoE is degraded at the tick.
	Degraded(tick int64) bool
}

// Baseline maintains per-feature online statistics (Welford) and flags
// features that deviate from their own history — a cheap pre-filter that
// annotates diagnosis requests with locally anomalous features.
type Baseline struct {
	features int
	warmup   int
	online   []stats.Online
}

// NewBaseline tracks `features` features; anomalies are only reported
// after `warmup` updates.
func NewBaseline(features, warmup int) *Baseline {
	if warmup < 2 {
		warmup = 2
	}
	return &Baseline{features: features, warmup: warmup, online: make([]stats.Online, features)}
}

// Update folds a sample into the baseline.
func (b *Baseline) Update(x []float64) {
	if len(x) != b.features {
		panic(fmt.Sprintf("collector: baseline got %d features, want %d", len(x), b.features))
	}
	for i, v := range x {
		b.online[i].Add(v)
	}
}

// Ready reports whether the warm-up phase is over.
func (b *Baseline) Ready() bool { return b.online[0].N() >= b.warmup }

// ZScores returns each feature's deviation from its own history in
// standard deviations (0 when the feature has no variance yet).
func (b *Baseline) ZScores(x []float64) []float64 {
	z := make([]float64, b.features)
	for i, v := range x {
		sd := b.online[i].StdDev()
		if sd > 1e-12 {
			z[i] = (v - b.online[i].Mean()) / sd
		}
	}
	return z
}

// Anomalies returns the indices of features whose |z| exceeds the
// threshold, or nil during warm-up.
func (b *Baseline) Anomalies(x []float64, threshold float64) []int {
	if !b.Ready() {
		return nil
	}
	var out []int
	for i, z := range b.ZScores(x) {
		if math.Abs(z) >= threshold {
			out = append(out, i)
		}
	}
	return out
}

// Event is one QoE degradation observed by the agent: the snapshot to
// diagnose plus the locally anomalous features.
type Event struct {
	Tick      int64
	Features  []float64
	Anomalies []int // indices flagged by the baseline pre-filter
}

// Config tunes the agent.
type Config struct {
	// Window bounds the sample history (default 96 ≈ one simulated day).
	Window int
	// Warmup samples before anomaly flagging (default 12).
	Warmup int
	// ZThreshold for the anomaly pre-filter (default 3).
	ZThreshold float64
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 96
	}
	if c.Warmup <= 0 {
		c.Warmup = 12
	}
	if c.ZThreshold <= 0 {
		c.ZThreshold = 3
	}
	return c
}

// Agent is the periodic probing loop. Not safe for concurrent use; drive
// it from one goroutine (Run does).
type Agent struct {
	source   Source
	cfg      Config
	baseline *Baseline
	history  [][]float64
	ticks    []int64
	steps    int
	events   int
	dropped  atomic.Int64 // events lost to a full out channel (Run)
}

// NewAgent builds an agent over a measurement source producing `features`
// features per sample.
func NewAgent(source Source, features int, cfg Config) *Agent {
	cfg = cfg.withDefaults()
	return &Agent{
		source:   source,
		cfg:      cfg,
		baseline: NewBaseline(features, cfg.Warmup),
	}
}

// Step performs one probing round at the given tick. It returns a
// diagnosis event when the QoE is degraded. Nominal samples feed the
// baseline; degraded ones do not (they would poison it).
func (a *Agent) Step(tick int64) (Event, bool) {
	a.steps++
	mSteps.Inc()
	x := a.source.Sample(tick)
	a.history = append(a.history, x)
	a.ticks = append(a.ticks, tick)
	if len(a.history) > a.cfg.Window {
		a.history = a.history[1:]
		a.ticks = a.ticks[1:]
	}
	if a.source.Degraded(tick) {
		a.events++
		mEvents.Inc()
		return Event{Tick: tick, Features: x, Anomalies: a.baseline.Anomalies(x, a.cfg.ZThreshold)}, true
	}
	a.baseline.Update(x)
	return Event{}, false
}

// Run probes every interval until the context ends, sending events to out.
// It never blocks on a slow consumer: events are dropped (and counted, see
// Stats) if out is full. Events are held in memory only: a crash loses
// the ones not yet delivered.
func (a *Agent) Run(ctx context.Context, interval time.Duration, startTick int64, out chan<- Event) {
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	tick := startTick
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			if ev, degraded := a.Step(tick); degraded {
				select {
				case out <- ev:
				default:
					mDropped.Inc()
					if a.dropped.Add(1) == 1 {
						log.Printf("collector: event channel full at tick %d; dropping (counted in Stats)", ev.Tick)
					}
				}
			}
			tick++
		}
	}
}

// History returns the retained samples (oldest first) and their ticks.
func (a *Agent) History() ([][]float64, []int64) { return a.history, a.ticks }

// Stats returns how many steps ran, how many degradations were seen, and
// how many events Run dropped because the consumer was too slow.
func (a *Agent) Stats() (steps, events, dropped int) {
	return a.steps, a.events, int(a.dropped.Load())
}

// Package collector implements the client-side agent of Fig. 1: a client
// that probes its landmarks each round, times a page load of the service
// it watches, and flags the round for diagnosis when that load time
// degrades against its own nominal history. The paper's prototype runs this loop
// inside an automated Chromium browser (§IV-A-c); here it is one Go agent
// over three sources of rounds: live landmarks (LiveSource, what
// `diagnet agent` runs), the simulator (SimSource) and a recorded
// session (Replay).
package collector

import (
	"context"

	"diagnet/internal/stats"
	"diagnet/internal/telemetry"
)

// Collector metrics (DESIGN.md §10), shared by every agent in the process.
var (
	mSteps  = telemetry.Default().Counter("collector.steps")
	mEvents = telemetry.Default().Counter("collector.events")
)

// The degradation rule, the shape of the simulator's own QoE label
// (qoe.Degraded): a round is degraded when its page load takes longer
// than ratio × the median of the last historyRounds nominal rounds +
// degradeSlackMs, once warmupRounds nominal rounds exist. DESIGN.md §19
// has the per-family measurement that chose it.
const (
	// DegradeRatio is the default ratio (diagnet agent -degrade-ratio).
	DegradeRatio   = 1.25
	degradeSlackMs = 40
	warmupRounds   = 5
	historyRounds  = 96
)

// Round is what one probing round observed.
type Round struct {
	// Landmarks lists the region indices of the landmarks that answered,
	// in probing order: the layout of Features, and the Landmarks field
	// of a diagnosis request.
	Landmarks []int
	// Features is the feature vector under that layout.
	Features []float64
	// LoadMs is the page-load time of the watched service, in ms.
	LoadMs float64
	// Lost names the landmarks that produced no measurement (live
	// rounds only).
	Lost []string
}

// Source is where an agent's rounds come from: live landmarks, the
// simulator, or a recorded session.
type Source interface {
	// Round probes once at tick. An error abandons the round.
	Round(ctx context.Context, tick int64) (Round, error)
}

// Agent is the periodic probing loop. Not safe for concurrent use.
type Agent struct {
	source  Source
	ratio   float64
	history []float64 // nominal load times, oldest first
	steps   int
	events  int
}

// NewAgent builds an agent over a source that flags a round whose load
// time exceeds ratio × the median nominal load time + 40 ms.
func NewAgent(source Source, ratio float64) *Agent {
	return &Agent{source: source, ratio: ratio}
}

// Step runs one probing round at tick and reports whether its QoE is
// degraded. Nominal load times feed the history; degraded ones do not
// (they would raise the median the rule compares against).
func (a *Agent) Step(ctx context.Context, tick int64) (Round, bool, error) {
	a.steps++
	mSteps.Inc()
	r, err := a.source.Round(ctx, tick)
	if err != nil {
		return Round{}, false, err
	}
	if len(a.history) >= warmupRounds && r.LoadMs > a.ratio*stats.Percentile(a.history, 50)+degradeSlackMs {
		a.events++
		mEvents.Inc()
		return r, true, nil
	}
	a.history = append(a.history, r.LoadMs)
	if len(a.history) > historyRounds {
		a.history = a.history[1:]
	}
	return r, false, nil
}

// Stats returns how many rounds ran and how many were degraded.
func (a *Agent) Stats() (steps, events int) { return a.steps, a.events }

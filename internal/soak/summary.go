package soak

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"diagnet/internal/durable"
)

// Summary is the machine-readable record of one soak run. It carries the
// full event schedule, so two runs with the same seed can be diffed for
// determinism, and the raw resource samples behind the growth verdicts.
type Summary struct {
	Seed       int64 `json:"seed"`
	Replicas   int   `json:"replicas"`
	DurationMs int64 `json:"duration_ms"`

	// Schedule is the deterministic event script the run executed.
	Schedule []Event `json:"schedule"`

	// Requests tallies client-observed outcomes: ok, 4xx, 429, 5xx,
	// transport.
	Requests map[string]int64 `json:"requests"`

	// Event outcome counters.
	Checkpoints     int `json:"checkpoints"`
	CrashInjections int `json:"crash_injections"`
	Retrains        int `json:"retrains_accepted"`
	FleetChecks     int `json:"fleet_checks"`

	// FederatedCounters is how many http.* counters the exactness check
	// compared between the fleet view and the per-replica sums.
	FederatedCounters int `json:"federated_counters_checked"`

	// Resource samples on a 200ms cadence across the chaos phase, taken
	// only while every replica is up (see sample).
	GoroutineSamples []int `json:"goroutine_samples"`
	FDSamples        []int `json:"fd_samples"`

	// LeakReport is leakcheck's full stack dump when teardown left
	// goroutines behind (empty on a clean run).
	LeakReport string `json:"leak_report,omitempty"`

	// StateRoot is preserved on failure for post-mortem (empty otherwise).
	StateRoot string `json:"state_root,omitempty"`

	// Violations lists every invariant that failed; empty means PASS.
	Violations []string `json:"violations"`
}

func (s *Summary) fail(format string, args ...any) {
	s.Violations = append(s.Violations, fmt.Sprintf(format, args...))
}

// sample records one tick's goroutine and fd counts, unless the fleet is
// not whole: a killed replica's connection goroutines and descriptors are
// gone until its restart, and a floor sampled inside that dip would make
// the next third's ordinary count read as growth.
func (s *Summary) sample(whole bool, goroutines, fds int) {
	if !whole {
		return
	}
	s.GoroutineSamples = append(s.GoroutineSamples, goroutines)
	s.FDSamples = append(s.FDSamples, fds)
}

// checkGrowth compares the quiescent floor (minimum) of the last third
// of each resource series against the middle third's. Retrain cycles
// and restart bursts swing the instantaneous counts by dozens, so means
// are noisy — but between bursts the count returns to its floor, and
// only a real leak raises that floor. The first third is excluded from
// the baseline because it straddles the pre-chaos warmup (the continual
// loop's steady-state churn runs permanently higher than the boot
// quiet); middle and last thirds are both in steady state, so floor
// growth between them beyond the slack is a compounding leak — one the
// end-of-run snapshot alone could miss when teardown reaps it.
func (s *Summary) checkGrowth() {
	if v, ok := floorGrowth(s.GoroutineSamples, 5); ok {
		s.fail("goroutine floor grew over the run: middle-third min %d, last-third min %d", v[0], v[1])
	}
	if v, ok := floorGrowth(s.FDSamples, 8); ok {
		s.fail("fd floor grew over the run: middle-third min %d, last-third min %d", v[0], v[1])
	}
}

// floorGrowth returns ([middleMin, lastMin], true) when the minimum of
// the last third of the series exceeds the middle third's by more than
// slack.
func floorGrowth(samples []int, slack int) ([2]int, bool) {
	n := len(samples)
	if n < 9 {
		return [2]int{}, false // too short to call either way
	}
	third := n / 3
	minOf := func(xs []int) int {
		m := xs[0]
		for _, x := range xs[1:] {
			if x < m {
				m = x
			}
		}
		return m
	}
	middle, last := minOf(samples[third:2*third]), minOf(samples[n-third:])
	if last > middle+slack {
		return [2]int{middle, last}, true
	}
	return [2]int{}, false
}

// WriteJSON publishes the summary (indented) at path through
// durable.WriteFile, creating parent directories as needed: a soak killed
// mid-write leaves the previous file or none, never a truncated one.
func (s *Summary) WriteJSON(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return durable.WriteFile(path, append(b, '\n'))
}

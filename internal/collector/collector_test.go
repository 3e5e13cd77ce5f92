package collector

import (
	"context"
	"testing"

	"diagnet/internal/netsim"
	"diagnet/internal/probe"
	"diagnet/internal/services"
	"diagnet/internal/stats"
)

func newSimSource(faultsAt func(int64) []netsim.Fault) *SimSource {
	w := netsim.NewWorld(netsim.Config{Seed: 1})
	svc := services.Service{ID: 0, Kind: services.ImageLocal, Host: netsim.GRAV}
	return NewSimSource(w, netsim.AMST, svc, probe.FullLayout(), faultsAt, 5)
}

func step(t *testing.T, a *Agent, tick int64) (Round, bool) {
	t.Helper()
	r, degraded, err := a.Step(context.Background(), tick)
	if err != nil {
		t.Fatal(err)
	}
	return r, degraded
}

// The load-time baseline flags the first round of an injected loss fault
// and none of the nominal rounds before it.
func TestBaselineFlagsInjectedAnomaly(t *testing.T) {
	faultFrom := int64(50)
	src := newSimSource(func(tick int64) []netsim.Fault {
		if tick >= faultFrom {
			return []netsim.Fault{netsim.NewFault(netsim.FaultLoss, netsim.GRAV)}
		}
		return nil
	})
	agent := NewAgent(src, DegradeRatio)
	for tick := int64(0); tick < faultFrom; tick++ {
		if _, degraded := step(t, agent, tick); degraded {
			t.Fatalf("degraded during nominal rounds at tick %d", tick)
		}
	}
	r, degraded := step(t, agent, faultFrom)
	if !degraded {
		t.Fatalf("loss fault did not trigger an event (load %.1f ms, history median %.1f ms)", r.LoadMs, stats.Percentile(agent.history, 50))
	}
	if len(r.Features) != probe.FullLayout().NumFeatures() {
		t.Fatalf("event carries %d features", len(r.Features))
	}
}

// Until warmupRounds nominal rounds exist, nothing is degraded.
func TestBaselineWarmup(t *testing.T) {
	loads := loadSeries{100, 100, 5000, 100, 100, 5000}
	agent := NewAgent(loads, DegradeRatio)
	for tick := range loads {
		_, degraded := step(t, agent, int64(tick))
		if want := tick == len(loads)-1; degraded != want {
			t.Fatalf("tick %d: degraded=%v, want %v", tick, degraded, want)
		}
	}
}

// The history keeps the last historyRounds nominal load times.
func TestAgentWindowBounded(t *testing.T) {
	loads := make(loadSeries, 200)
	for i := range loads {
		loads[i] = 100 + 0.1*float64(i)
	}
	agent := NewAgent(loads, DegradeRatio)
	for tick := range loads {
		step(t, agent, int64(tick))
	}
	if len(agent.history) != historyRounds || agent.history[0] != loads[len(loads)-historyRounds] {
		t.Fatalf("history holds %d loads from %.1f ms, want the last %d", len(agent.history), agent.history[0], historyRounds)
	}
	if steps, events := agent.Stats(); steps != 200 || events != 0 {
		t.Fatalf("stats %d/%d", steps, events)
	}
}

// Degraded loads stay out of the history, so a fault on every other round
// is caught on every one of them.
func TestAgentDegradedSamplesDoNotPoisonBaseline(t *testing.T) {
	loads := make(loadSeries, 100)
	degradedRounds := 0
	for i := range loads {
		loads[i] = 100
		if i%2 == 1 && i > 30 {
			loads[i] = 200
			degradedRounds++
		}
	}
	agent := NewAgent(loads, DegradeRatio)
	for tick := range loads {
		if _, degraded := step(t, agent, int64(tick)); degraded != (loads[tick] == 200) {
			t.Fatalf("tick %d: degraded=%v at %.0f ms", tick, degraded, loads[tick])
		}
	}
	if _, events := agent.Stats(); events != degradedRounds {
		t.Fatalf("%d events for %d degraded rounds", events, degradedRounds)
	}
}

// A live round that loses a landmark is narrower than the last one; the
// agent judges it by its load time alone.
func TestAgentAcceptsChangingLandmarks(t *testing.T) {
	rounds := []Round{
		{Landmarks: []int{0, 1}, Features: make([]float64, probe.NewLayout([]int{0, 1}).NumFeatures()), LoadMs: 100},
		{Landmarks: []int{0}, Features: make([]float64, probe.NewLayout([]int{0}).NumFeatures()), LoadMs: 100},
	}
	agent := NewAgent(roundSeries(rounds), DegradeRatio)
	for tick := 0; tick < 10; tick++ {
		if r, _ := step(t, agent, int64(tick)); len(r.Landmarks) != 2-tick%2 {
			t.Fatalf("tick %d answered from %v", tick, r.Landmarks)
		}
	}
}

// roundSeries is a Source that cycles through fixed rounds.
type roundSeries []Round

func (s roundSeries) Round(_ context.Context, tick int64) (Round, error) {
	return s[int(tick)%len(s)], nil
}

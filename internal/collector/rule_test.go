package collector

import (
	"context"
	"fmt"
	"os"
	"strings"
	"testing"

	"diagnet/internal/netsim"
	"diagnet/internal/probe"
	"diagnet/internal/services"
	"diagnet/internal/stats"
)

// candidate is one degradation rule an agent could run: a load is
// degraded when it exceeds ratio × the median nominal load + slackMs,
// under the agent's history semantics (warmupRounds nominal rounds
// first, at most historyRounds kept, degraded loads never kept).
type candidate struct {
	name           string
	ratio, slackMs float64
}

var candidates = []candidate{
	{"1.5 × median", 1.5, 0},
	{"1.25 × median + 40 ms", 1.25, 40},
}

func (c candidate) flags(loads []float64) []bool {
	var history []float64
	out := make([]bool, len(loads))
	for i, l := range loads {
		if len(history) >= warmupRounds && l > c.ratio*stats.Percentile(history, 50)+c.slackMs {
			out[i] = true
			continue
		}
		history = append(history, l)
		if len(history) > historyRounds {
			history = history[1:]
		}
	}
	return out
}

// Scenario grid of the rule table: every client below watches every
// catalog service for ruleTicks rounds, one fault of one family active
// from faultFrom to faultTo, injected at the service's host (network
// families) or the client's region (gateway delay, CPU stress).
const (
	ruleTicks = 300
	faultFrom = 100
	faultTo   = 200
)

var ruleClients = []int{netsim.AMST, netsim.BEAU, netsim.SING, netsim.SEAT, netsim.TOKY}

// scenario is one simulated session: its page loads and the ground truth
// (qoe.Degraded) per tick.
type scenario struct {
	loads []float64
	truth []bool
}

func ruleScenarios(kind netsim.FaultKind) []scenario {
	w := netsim.NewWorld(netsim.Config{Seed: 1})
	var out []scenario
	for _, client := range ruleClients {
		for _, svc := range services.Catalog() {
			region := svc.Host
			if kind.ClientSide() {
				region = client
			}
			fault := []netsim.Fault{netsim.NewFault(kind, region)}
			src := NewSimSource(w, client, svc, probe.FullLayout(), func(tick int64) []netsim.Fault {
				if tick >= faultFrom && tick < faultTo {
					return fault
				}
				return nil
			}, int64(7+client))
			var s scenario
			for tick := int64(0); tick < ruleTicks; tick++ {
				r, _ := src.Round(context.Background(), tick)
				s.loads = append(s.loads, r.LoadMs)
				s.truth = append(s.truth, src.q.Degraded(client, svc, src.env(tick)))
			}
			out = append(out, s)
		}
	}
	return out
}

// score is one rule's record on one fault family.
type score struct {
	degraded, hits, falseAlarms, nominal int
	delaySum, detected, sessions         int
}

func (s *score) add(flags, truth []bool) {
	first, hit := -1, -1
	for i := range flags {
		switch {
		case truth[i]:
			s.degraded++
			if first < 0 {
				first = i
			}
			if flags[i] {
				s.hits++
				if hit < 0 {
					hit = i
				}
			}
		default:
			s.nominal++
			if flags[i] {
				s.falseAlarms++
			}
		}
	}
	if first >= 0 {
		s.sessions++
		if hit >= 0 {
			s.detected++
			s.delaySum += hit - first
		}
	}
}

// loadSeries is a Source that answers tick i with the i-th load time.
type loadSeries []float64

func (l loadSeries) Round(_ context.Context, tick int64) (Round, error) {
	return Round{LoadMs: l[tick]}, nil
}

// TestRuleTableInDesign: the per-family measurement of both candidate
// rules that DESIGN.md §19 commits is what the simulator gives today,
// and the agent runs the candidate whose F1 is no worse on any family.
func TestRuleTableInDesign(t *testing.T) {
	var b strings.Builder
	b.WriteString("| fault family | degraded rounds | rule | hit rate | sessions detected | mean delay (rounds) | false alarms | F1 |\n")
	b.WriteString("|---|---|---|---|---|---|---|---|\n")
	for _, kind := range netsim.AllFaultKinds() {
		scs := ruleScenarios(kind)
		for i, sc := range scs {
			agent := NewAgent(loadSeries(sc.loads), DegradeRatio)
			want := candidates[1].flags(sc.loads)
			for tick := range sc.loads {
				if _, degraded, _ := agent.Step(context.Background(), int64(tick)); degraded != want[tick] {
					t.Fatalf("%s scenario %d tick %d: agent says degraded=%v, %s says %v",
						kind, i, tick, degraded, candidates[1].name, want[tick])
				}
			}
		}
		f1 := make([]float64, len(candidates))
		for i, c := range candidates {
			var s score
			for _, sc := range scs {
				s.add(c.flags(sc.loads), sc.truth)
			}
			f1[i] = 2 * float64(s.hits) / float64(s.hits+s.degraded+s.falseAlarms)
			fmt.Fprintf(&b, "| %s | %d | %s | %.2f | %d/%d | %.1f | %d of %d | %.2f |\n",
				kind, s.degraded, c.name, float64(s.hits)/float64(s.degraded),
				s.detected, s.sessions, float64(s.delaySum)/float64(s.detected),
				s.falseAlarms, s.nominal, f1[i])
		}
		if f1[1] < f1[0] {
			t.Errorf("%s: %s has F1 %.4f, %s %.4f: the agent runs the worse rule",
				kind, candidates[1].name, f1[1], candidates[0].name, f1[0])
		}
	}
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(design), b.String()) {
		t.Fatalf("DESIGN.md §19 does not hold the rule table; it reads today:\n%s", b.String())
	}
}

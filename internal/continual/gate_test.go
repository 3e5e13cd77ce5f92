package continual

import (
	"testing"
	"time"
)

// obs builds an observation whose incumbent picks class ic and candidate
// picks class cc.
func obs(ic, cc int, incLat, candLat time.Duration) observation {
	inc := make([]float64, 4)
	cand := make([]float64, 4)
	inc[ic] = 0.9
	cand[cc] = 0.9
	return observation{
		Incumbent: inc, Candidate: cand,
		IncumbentLatency: incLat, CandidateLatency: candLat,
	}
}

func TestEvaluatorSummary(t *testing.T) {
	e := newShadowEvaluator(4, 1)
	for i := 0; i < 80; i++ {
		e.Observe(obs(i%4, i%4, time.Millisecond, 2*time.Millisecond))
	}
	s := e.Summary()
	if s.Samples != 80 || s.AgreeRate != 1 {
		t.Fatalf("samples %d agree %v", s.Samples, s.AgreeRate)
	}
	if s.PSI > 1e-9 {
		t.Fatalf("identical distributions gave PSI %g", s.PSI)
	}
	if s.LatencyRatio < 1.9 || s.LatencyRatio > 2.1 {
		t.Fatalf("latency ratio %g, want ~2", s.LatencyRatio)
	}
	if len(e.Baseline()) != 80 {
		t.Fatalf("baseline reservoir %d, want 80", len(e.Baseline()))
	}
}

func TestEvaluatorDisagreementShowsInPSI(t *testing.T) {
	e := newShadowEvaluator(4, 1)
	for i := 0; i < 100; i++ {
		e.Observe(obs(0, 3, time.Millisecond, time.Millisecond)) // candidate always flips the class
	}
	s := e.Summary()
	if s.AgreeRate != 0 {
		t.Fatalf("agree %v, want 0", s.AgreeRate)
	}
	if s.PSI < 0.25 {
		t.Fatalf("PSI %g too small for a total distribution flip", s.PSI)
	}
}

func TestGateCriteria(t *testing.T) {
	okTrain := &TrainOutcome{HoldoutSamples: 40, HoldoutIncumbent: 0.70, HoldoutCandidate: 0.80}
	okShadow := ShadowSummary{Samples: 100, AgreeRate: 0.95, PSI: 0.01, LatencyRatio: 1.0}

	cases := []struct {
		name    string
		cfg     GateConfig
		train   *TrainOutcome
		shadow  ShadowSummary
		promote bool
	}{
		{"pass", GateConfig{}, okTrain, okShadow, true},
		{"too little shadow traffic", GateConfig{}, okTrain, ShadowSummary{Samples: 10}, false},
		{"holdout regression", GateConfig{}, &TrainOutcome{HoldoutSamples: 40, HoldoutIncumbent: 0.8, HoldoutCandidate: 0.7}, okShadow, false},
		{"holdout gain below MinGain", GateConfig{MinGain: 0.2}, okTrain, okShadow, false},
		{"no holdout, low agreement", GateConfig{}, &TrainOutcome{}, ShadowSummary{Samples: 100, AgreeRate: 0.5, PSI: 0.01}, false},
		{"no holdout, high agreement", GateConfig{}, &TrainOutcome{}, ShadowSummary{Samples: 100, AgreeRate: 0.95, PSI: 0.01}, true},
		{"prediction shift", GateConfig{}, okTrain, ShadowSummary{Samples: 100, AgreeRate: 0.95, PSI: 0.8}, false},
		{"latency blowup", GateConfig{}, okTrain, ShadowSummary{Samples: 100, AgreeRate: 0.95, PSI: 0.01, LatencyRatio: 3}, false},
		{"negative MinGain accepts regression", GateConfig{MinGain: -1, MaxPSI: 10, MaxLatencyRatio: 10}, &TrainOutcome{HoldoutSamples: 40, HoldoutIncumbent: 0.9, HoldoutCandidate: 0.2}, okShadow, true},
	}
	for _, tc := range cases {
		d := tc.cfg.Decide(tc.train, tc.shadow)
		if d.Promote != tc.promote {
			t.Errorf("%s: promote=%v (%s), want %v", tc.name, d.Promote, d.Reason, tc.promote)
		}
		if d.Reason == "" {
			t.Errorf("%s: empty reason", tc.name)
		}
	}
}

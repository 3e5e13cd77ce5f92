package continual

import (
	"fmt"
	"math/rand"
	"time"

	"diagnet/internal/drift"
)

// observation is one replayed request's incumbent-vs-candidate comparison:
// both models' coarse distributions, and each model's share of the pass it
// ran the request in (pass time / rows), which is what the gate's latency
// criterion compares.
type observation struct {
	Incumbent, Candidate               []float64
	IncumbentLatency, CandidateLatency time.Duration
}

// shadowEvaluator accumulates the incumbent-vs-candidate comparison of one
// candidate's shadow phase. It belongs to the controller's loop goroutine,
// which both replays the requests and reads the verdict.
type shadowEvaluator struct {
	classes    int
	n          int64
	agree      int64
	incCounts  []float64 // predicted-class histogram, incumbent
	candCounts []float64 // predicted-class histogram, candidate
	incLatNs   float64
	candLatNs  float64
	// refSample reservoir-samples the CANDIDATE's coarse distributions:
	// the post-promotion watchdog compares live production behavior
	// against how the candidate behaved while being vetted on replayed
	// traffic. (Comparing against the incumbent instead would read every
	// legitimate adaptation — the whole point of retraining — as a
	// regression.)
	refSample [][]float64
	refSeen   int
	rng       *rand.Rand
}

// refSampleCap bounds the watchdog baseline reservoir.
const refSampleCap = 512

// newShadowEvaluator builds an evaluator for `classes` coarse families.
func newShadowEvaluator(classes int, seed int64) *shadowEvaluator {
	return &shadowEvaluator{
		classes:    classes,
		incCounts:  make([]float64, classes),
		candCounts: make([]float64, classes),
		rng:        rand.New(rand.NewSource(seed)),
	}
}

// Observe folds one observation into the running comparison.
func (e *shadowEvaluator) Observe(o observation) {
	e.n++
	ik, ck := argmax(o.Incumbent), argmax(o.Candidate)
	if ik == ck {
		e.agree++
	}
	if ik < e.classes {
		e.incCounts[ik]++
	}
	if ck < e.classes {
		e.candCounts[ck]++
	}
	e.incLatNs += float64(o.IncumbentLatency.Nanoseconds())
	e.candLatNs += float64(o.CandidateLatency.Nanoseconds())

	e.refSeen++
	cand := append([]float64(nil), o.Candidate...)
	if len(e.refSample) < refSampleCap {
		e.refSample = append(e.refSample, cand)
	} else if j := e.rng.Intn(e.refSeen); j < refSampleCap {
		e.refSample[j] = cand
	}
}

// Samples returns how many observations arrived so far.
func (e *shadowEvaluator) Samples() int64 { return e.n }

// ShadowSummary is the evaluator's verdict inputs for the gate.
type ShadowSummary struct {
	Samples int64 `json:"samples"`
	// AgreeRate is the fraction of replayed requests where both models
	// picked the same coarse family.
	AgreeRate float64 `json:"agree_rate"`
	// PSI measures how far the candidate's predicted-class distribution
	// strays from the incumbent's over the same traffic.
	PSI float64 `json:"psi"`
	// LatencyRatio is mean candidate / mean incumbent per-sample fused
	// inference time (0 when either side has no data).
	LatencyRatio float64 `json:"latency_ratio"`
}

// Summary snapshots the running comparison.
func (e *shadowEvaluator) Summary() ShadowSummary {
	s := ShadowSummary{Samples: e.n}
	if e.n > 0 {
		s.AgreeRate = float64(e.agree) / float64(e.n)
		s.PSI = drift.PSI(e.incCounts, e.candCounts)
	}
	if e.incLatNs > 0 && e.candLatNs > 0 {
		s.LatencyRatio = e.candLatNs / e.incLatNs
	}
	return s
}

// Baseline returns the reservoir of the candidate's shadow-phase coarse
// distributions — the watchdog's pre-promotion reference: after the
// promotion, live production behavior must keep matching what the gate
// vetted.
func (e *shadowEvaluator) Baseline() [][]float64 { return e.refSample }

// GateConfig sets the promotion criteria. Zero values take the defaults;
// set a criterion negative to effectively disable it (MinGain) or very
// large (MaxPSI, MaxLatencyRatio).
type GateConfig struct {
	// MinShadowSamples is the least replayed traffic before any verdict
	// (default 64).
	MinShadowSamples int64
	// MinGain is the required labeled-holdout accuracy improvement,
	// candidate − incumbent (default 0: the candidate must not be worse).
	MinGain float64
	// MinAgree is the required agreement rate with the incumbent when no
	// labeled holdout exists (default 0.85) — the only accuracy proxy
	// available under pure pseudo-labeling.
	MinAgree float64
	// MaxPSI bounds the candidate's prediction-distribution shift against
	// the incumbent over identical traffic (default 0.25, the detector's
	// "major shift" threshold).
	MaxPSI float64
	// MaxLatencyRatio bounds candidate/incumbent per-sample inference
	// time (default 1.5).
	MaxLatencyRatio float64
}

func (c GateConfig) withDefaults() GateConfig {
	if c.MinShadowSamples == 0 {
		c.MinShadowSamples = 64
	}
	if c.MinAgree == 0 {
		c.MinAgree = 0.85
	}
	if c.MaxPSI == 0 {
		c.MaxPSI = 0.25
	}
	if c.MaxLatencyRatio == 0 {
		c.MaxLatencyRatio = 1.5
	}
	return c
}

// Decision is the gate's verdict with a human-readable reason.
type Decision struct {
	Promote bool   `json:"promote"`
	Reason  string `json:"reason"`
}

// Decide weighs a finished retrain plus its shadow evidence against the
// gate criteria. All criteria must pass.
func (c GateConfig) Decide(train *TrainOutcome, shadow ShadowSummary) Decision {
	c = c.withDefaults()
	if shadow.Samples < c.MinShadowSamples {
		return Decision{false, fmt.Sprintf("insufficient shadow traffic: %d < %d", shadow.Samples, c.MinShadowSamples)}
	}
	if train.HoldoutSamples > 0 {
		gain := train.HoldoutCandidate - train.HoldoutIncumbent
		if gain < c.MinGain {
			return Decision{false, fmt.Sprintf("holdout gain %.4f < %.4f (candidate %.4f, incumbent %.4f on %d labeled)",
				gain, c.MinGain, train.HoldoutCandidate, train.HoldoutIncumbent, train.HoldoutSamples)}
		}
	} else if shadow.AgreeRate < c.MinAgree {
		return Decision{false, fmt.Sprintf("no labeled holdout and agreement %.4f < %.4f", shadow.AgreeRate, c.MinAgree)}
	}
	if shadow.PSI > c.MaxPSI {
		return Decision{false, fmt.Sprintf("prediction shift PSI %.4f > %.4f", shadow.PSI, c.MaxPSI)}
	}
	if shadow.LatencyRatio > c.MaxLatencyRatio {
		return Decision{false, fmt.Sprintf("latency ratio %.2f > %.2f", shadow.LatencyRatio, c.MaxLatencyRatio)}
	}
	reason := fmt.Sprintf("agreement %.4f, PSI %.4f over %d shadow samples", shadow.AgreeRate, shadow.PSI, shadow.Samples)
	if train.HoldoutSamples > 0 {
		reason = fmt.Sprintf("holdout gain %+.4f on %d labeled; %s", train.HoldoutCandidate-train.HoldoutIncumbent, train.HoldoutSamples, reason)
	}
	return Decision{true, reason}
}

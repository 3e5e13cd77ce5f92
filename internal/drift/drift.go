// Package drift watches a deployed DiagNet model for distribution drift.
// The paper's premise is that Internet topologies and services evolve
// continuously (§II-A); a model trained last month may silently stop
// fitting. The detector compares the model's live coarse-prediction
// distribution and confidence against a reference window captured at
// deployment time, using the population stability index (PSI) and a
// confidence drop, and reports drift when either exceeds its threshold.
//
// The package only computes verdicts. The continual controller owns the
// detectors that act on them: its retrain trigger, whose verdict it
// publishes as the drift.* metrics, and its post-promotion watchdog.
package drift

import (
	"fmt"
	"math"

	"diagnet/internal/stats"
)

// Config tunes the detector.
type Config struct {
	// WindowSize is the number of live predictions compared against the
	// reference (default 200).
	WindowSize int
	// PSIThreshold raises the drift signal (conventional rule of thumb:
	// <0.1 stable, 0.1–0.25 moderate, >0.25 major; default 0.25).
	PSIThreshold float64
	// ConfidenceDrop raises the signal when the mean top-1 probability
	// falls this far below the reference mean (default 0.15).
	ConfidenceDrop float64
}

func (c Config) withDefaults() Config {
	if c.WindowSize <= 0 {
		c.WindowSize = 200
	}
	if c.PSIThreshold <= 0 {
		c.PSIThreshold = 0.25
	}
	if c.ConfidenceDrop <= 0 {
		c.ConfidenceDrop = 0.15
	}
	return c
}

// Detector accumulates coarse predictions. Feed it with Observe; Freeze
// the reference right after deployment, or Reset it to freeze itself on
// its first full window; Status reports drift. Not safe for concurrent
// use.
type Detector struct {
	cfg     Config
	classes int

	refCounts []float64
	refConf   stats.Online
	refSet    bool

	liveCounts []float64
	liveConf   []float64 // ring of recent top-1 confidences
	livePreds  []int     // ring of recent arg-max classes
	pos        int
	filled     bool

	// autoFreeze, when positive, freezes the reference automatically once
	// that many reference observations have accumulated (Reset arms it for
	// unattended re-baselining after a model promotion).
	autoFreeze int
}

// NewDetector creates a detector over `classes` coarse classes.
func NewDetector(classes int, cfg Config) *Detector {
	cfg = cfg.withDefaults()
	return &Detector{
		cfg:        cfg,
		classes:    classes,
		refCounts:  make([]float64, classes),
		liveCounts: make([]float64, classes),
		liveConf:   make([]float64, cfg.WindowSize),
		livePreds:  make([]int, cfg.WindowSize),
	}
}

// Observe folds one coarse prediction (softmax distribution) into the
// detector.
func (d *Detector) Observe(coarse []float64) {
	if len(coarse) != d.classes {
		panic(fmt.Sprintf("drift: %d classes, want %d", len(coarse), d.classes))
	}
	arg := 0
	for k, p := range coarse {
		if p > coarse[arg] {
			arg = k
		}
	}
	if !d.refSet {
		d.refCounts[arg]++
		d.refConf.Add(coarse[arg])
		if d.autoFreeze > 0 && d.refConf.N() >= d.autoFreeze {
			d.Freeze()
		}
		return
	}
	// Live ring buffer.
	if d.filled {
		old := d.livePreds[d.pos]
		d.liveCounts[old]--
	}
	d.livePreds[d.pos] = arg
	d.liveConf[d.pos] = coarse[arg]
	d.liveCounts[arg]++
	d.pos++
	if d.pos == d.cfg.WindowSize {
		d.pos = 0
		d.filled = true
	}
}

// Freeze captures the reference distribution: observations so far become
// the baseline and subsequent ones feed the live window.
func (d *Detector) Freeze() {
	d.refSet = true
	d.autoFreeze = 0
}

// Reset discards both the reference and the live window so the detector
// can re-baseline against a new model's prediction distribution (the
// continual controller calls this right after a promotion: the old
// reference describes the old model and would read the legitimate change
// of decision function as drift). The new reference freezes itself once a
// full window of observations has accumulated.
func (d *Detector) Reset() {
	d.refSet = false
	d.autoFreeze = d.cfg.WindowSize
	d.refConf = stats.Online{}
	for i := range d.refCounts {
		d.refCounts[i] = 0
	}
	for i := range d.liveCounts {
		d.liveCounts[i] = 0
	}
	d.pos = 0
	d.filled = false
}

// liveN returns the live-window sample count.
func (d *Detector) liveN() int {
	if d.filled {
		return d.cfg.WindowSize
	}
	return d.pos
}

// Status is the detector's verdict.
type Status struct {
	PSI float64
	// ConfidenceDelta is the reference mean top-1 probability minus the
	// live one (positive when the model has become less sure than it was
	// at baseline).
	ConfidenceDelta float64
	// SamplesRef counts the reference observations; SamplesLive the live
	// window's, which stays 0 until the reference freezes.
	SamplesRef  int
	SamplesLive int
	Drifted     bool
	Reason      string
}

// Status computes the current drift verdict. It needs a frozen reference
// and at least a half-full live window.
func (d *Detector) Status() Status {
	s := Status{SamplesRef: d.refConf.N(), SamplesLive: d.liveN()}
	if !d.refSet || s.SamplesLive < d.cfg.WindowSize/2 {
		s.Reason = "insufficient data"
		return s
	}
	var liveConfSum float64
	for i := 0; i < s.SamplesLive; i++ {
		liveConfSum += d.liveConf[i]
	}
	refConf, liveConf := d.refConf.Mean(), liveConfSum/float64(s.SamplesLive)
	s.ConfidenceDelta = refConf - liveConf
	s.PSI = psi(d.refCounts, d.liveCounts[:])

	switch {
	case s.PSI > d.cfg.PSIThreshold:
		s.Drifted = true
		s.Reason = fmt.Sprintf("prediction distribution shifted (PSI %.3f > %.3f)", s.PSI, d.cfg.PSIThreshold)
	case s.ConfidenceDelta > d.cfg.ConfidenceDrop:
		s.Drifted = true
		s.Reason = fmt.Sprintf("confidence dropped %.2f → %.2f", refConf, liveConf)
	default:
		s.Reason = "stable"
	}
	return s
}

// PSI computes the population stability index between two count vectors,
// with epsilon smoothing for empty buckets. Exported for consumers that
// compare prediction histograms outside a Detector — e.g. the continual
// promotion gate weighing incumbent vs candidate shadow predictions.
func PSI(ref, live []float64) float64 { return psi(ref, live) }

// psi computes the population stability index between two count vectors,
// with epsilon smoothing for empty buckets.
func psi(ref, live []float64) float64 {
	const eps = 1e-4
	var refN, liveN float64
	for i := range ref {
		refN += ref[i]
		liveN += live[i]
	}
	if refN == 0 || liveN == 0 {
		return 0
	}
	var out float64
	for i := range ref {
		p := math.Max(ref[i]/refN, eps)
		q := math.Max(live[i]/liveN, eps)
		out += (q - p) * math.Log(q/p)
	}
	return out
}

package collector

import (
	"encoding/gob"
	"fmt"
	"io"

	"diagnet/internal/probe"
)

// Trace is one recorded probing session: the (tick, feature vector, QoE
// flag) stream an agent observed. It can be persisted with gob and
// replayed as a Source — letting diagnoses be reproduced offline from
// field recordings, the "post-mortem analysis of past incidents" workflow
// of §III-A. (A probe-session recording, not a request trace: those are
// internal/tracing.)
type Trace struct {
	// Landmarks is the layout the features were collected under.
	Landmarks []int
	Ticks     []int64
	Features  [][]float64
	Degraded  []bool
}

// NewTrace returns an empty trace for the given layout.
func NewTrace(layout probe.Layout) *Trace {
	return &Trace{Landmarks: append([]int(nil), layout.Landmarks...)}
}

// Layout returns the trace's feature layout.
func (t *Trace) Layout() probe.Layout { return probe.NewLayout(t.Landmarks) }

// Len returns the number of recorded steps.
func (t *Trace) Len() int { return len(t.Ticks) }

// Append records one step. The feature vector is copied.
func (t *Trace) Append(tick int64, features []float64, degraded bool) {
	if want := t.Layout().NumFeatures(); len(features) != want {
		panic(fmt.Sprintf("trace: %d features, want %d", len(features), want))
	}
	t.Ticks = append(t.Ticks, tick)
	t.Features = append(t.Features, append([]float64(nil), features...))
	t.Degraded = append(t.Degraded, degraded)
}

// RecordTrace samples a source for the given ticks and returns the trace.
func RecordTrace(src Source, layout probe.Layout, ticks []int64) *Trace {
	t := NewTrace(layout)
	for _, tick := range ticks {
		t.Append(tick, src.Sample(tick), src.Degraded(tick))
	}
	return t
}

// Save writes the trace with gob.
func (t *Trace) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(t)
}

// LoadTrace reads a trace written by Save.
func LoadTrace(r io.Reader) (*Trace, error) {
	var t Trace
	if err := gob.NewDecoder(r).Decode(&t); err != nil {
		return nil, fmt.Errorf("trace: load: %w", err)
	}
	return &t, nil
}

// Replay exposes the trace as a Source. Ticks outside the
// recording panic — a replayed agent must follow the recorded schedule.
type Replay struct {
	trace *Trace
	index map[int64]int
}

// Replay returns a replaying source over the trace.
func (t *Trace) Replay() *Replay {
	r := &Replay{trace: t, index: make(map[int64]int, len(t.Ticks))}
	for i, tick := range t.Ticks {
		r.index[tick] = i
	}
	return r
}

// Sample implements Source.
func (r *Replay) Sample(tick int64) []float64 {
	i, ok := r.index[tick]
	if !ok {
		panic(fmt.Sprintf("trace: tick %d not recorded", tick))
	}
	return r.trace.Features[i]
}

// Degraded implements Source.
func (r *Replay) Degraded(tick int64) bool {
	i, ok := r.index[tick]
	if !ok {
		panic(fmt.Sprintf("trace: tick %d not recorded", tick))
	}
	return r.trace.Degraded[i]
}

var _ Source = (*Replay)(nil)

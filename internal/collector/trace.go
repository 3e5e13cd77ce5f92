package collector

import (
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"diagnet/internal/probe"
)

// Trace is one recorded probing session: the (tick, feature vector, page
// load) stream an agent observed. It can be persisted with gob and
// replayed as a Source, so a replayed agent applies the same degradation
// rule as a live one — letting diagnoses be reproduced offline from
// recordings, the "post-mortem analysis of past incidents" workflow of
// §III-A. (A probe-session recording, not a request trace: those are
// internal/tracing.)
type Trace struct {
	// Landmarks is the layout the features were collected under.
	Landmarks []int
	Ticks     []int64
	Features  [][]float64
	LoadMs    []float64
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
func (t *Trace) Append(tick int64, features []float64, loadMs float64) {
	if want := t.Layout().NumFeatures(); len(features) != want {
		panic(fmt.Sprintf("trace: %d features, want %d", len(features), want))
	}
	t.Ticks = append(t.Ticks, tick)
	t.Features = append(t.Features, append([]float64(nil), features...))
	t.LoadMs = append(t.LoadMs, loadMs)
}

// RecordTrace runs a source at the given ticks and returns the trace.
// Every round must answer from the same landmarks.
func RecordTrace(ctx context.Context, src Source, ticks []int64) (*Trace, error) {
	var t *Trace
	for _, tick := range ticks {
		r, err := src.Round(ctx, tick)
		if err != nil {
			return nil, fmt.Errorf("trace: tick %d: %w", tick, err)
		}
		if t == nil {
			t = NewTrace(probe.NewLayout(r.Landmarks))
		} else if !slices.Equal(r.Landmarks, t.Landmarks) {
			return nil, fmt.Errorf("trace: tick %d answered from landmarks %v, the trace records %v", tick, r.Landmarks, t.Landmarks)
		}
		t.Append(tick, r.Features, r.LoadMs)
	}
	if t == nil {
		return nil, fmt.Errorf("trace: no ticks to record")
	}
	return t, nil
}

// Save writes the trace with gob.
func (t *Trace) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(t)
}

// LoadTrace reads a trace written by Save and checks that it can be
// replayed: one tick, feature row and load time per step, no tick twice,
// every row as wide as the layout, and the layout one the deployment
// knows.
func LoadTrace(r io.Reader) (*Trace, error) {
	var f struct {
		Landmarks []int
		Ticks     []int64
		Features  [][]float64
		LoadMs    []float64
		// Degraded is the QoE flag the retired format recorded instead of
		// LoadMs; gob would otherwise drop it and replay "never degraded".
		Degraded []bool
	}
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("trace: load: %w", err)
	}
	t := &Trace{Landmarks: f.Landmarks, Ticks: f.Ticks, Features: f.Features, LoadMs: f.LoadMs}
	switch {
	case len(f.Degraded) > 0:
		return nil, fmt.Errorf("trace: load: a retired format that records Degraded flags, not LoadMs; record the session again")
	case len(t.LoadMs) != len(t.Ticks) || len(t.Features) != len(t.Ticks):
		return nil, fmt.Errorf("trace: load: %d ticks, %d feature rows, %d load times", len(t.Ticks), len(t.Features), len(t.LoadMs))
	}
	if err := t.Layout().Validate(probe.FullLayout()); err != nil {
		return nil, fmt.Errorf("trace: load: %w", err)
	}
	want := t.Layout().NumFeatures()
	seen := make(map[int64]bool, len(t.Ticks))
	for i, row := range t.Features {
		if seen[t.Ticks[i]] {
			return nil, fmt.Errorf("trace: load: tick %d recorded twice", t.Ticks[i])
		}
		seen[t.Ticks[i]] = true
		if len(row) != want {
			return nil, fmt.Errorf("trace: load: tick %d has %d features, the layout %d", t.Ticks[i], len(row), want)
		}
	}
	return t, nil
}

// Replay exposes the trace as a Source. Ticks outside the recording
// panic — a replayed agent must follow the recorded schedule.
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

// Round implements Source.
func (r *Replay) Round(_ context.Context, tick int64) (Round, error) {
	i, ok := r.index[tick]
	if !ok {
		panic(fmt.Sprintf("trace: tick %d not recorded", tick))
	}
	return Round{Landmarks: r.trace.Landmarks, Features: r.trace.Features[i], LoadMs: r.trace.LoadMs[i]}, nil
}

// Package telemetry is DiagNet's dependency-free metrics substrate: atomic
// counters, float gauges, and fixed-bucket latency histograms, collected
// in a process-wide registry whose one point-in-time view is Export.
//
// A production RCA system is a monitoring system first: before DiagNet can
// diagnose the Internet it must be able to diagnose itself — how long a
// Diagnose call spends in the forward pass vs. the input-gradient
// attention pass, how often probe rounds degrade, how many events the
// collector drops. Every layer of the pipeline records into the default
// registry; diagnetd and the router serve its Export as JSON at
// GET /v1/metrics, diagnet-agent via its -metrics listener.
//
// The hot-path cost is one atomic add per counter event and one binary
// search plus two atomic adds per histogram observation; stage timing
// (tracing.Clock) adds one time.Now per stage boundary and can be switched
// off entirely with SetEnabled(false) (see the overhead benchmark in
// internal/core).
package telemetry

import (
	"encoding/json"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// enabled gates stage timing globally (tracing.Clock reads it). Counters
// and direct histogram observations are cheap enough to stay always-on;
// stage clocks are the only instrumentation that calls into the OS clock,
// so they carry the switch.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled switches stage timing on or off process-wide.
func SetEnabled(on bool) { enabled.Store(on) }

// On reports whether stage timing is enabled.
func On() bool { return enabled.Load() }

// Millis converts a duration to fractional milliseconds, the unit every
// latency histogram in the registry uses.
func Millis(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// Counter is a monotonically increasing event count. Safe for concurrent
// use; the zero value is ready.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative deltas are ignored: counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a float64 value that can go up and down (in-flight requests,
// last epoch's loss). Safe for concurrent use; the zero value is ready.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add shifts the value by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// LatencyBuckets is the default histogram bucket layout for durations in
// milliseconds: a 1-2.5-5 ladder from 1 µs to 60 s (24 buckets plus
// overflow), wide enough for a sub-millisecond Diagnose stage and a
// 60-second probing round alike.
var LatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
	1, 2.5, 5, 10, 25, 50, 100, 250, 500,
	1000, 2500, 5000, 10000, 30000, 60000,
}

// SizeBuckets is a bucket layout for counts (batch sizes, landmark
// counts): powers of two from 1 to 4096.
var SizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096}

// Histogram is a fixed-bucket histogram. Bounds are inclusive upper
// limits in ascending order; observations above the last bound land in an
// overflow bucket. Safe for concurrent use.
type Histogram struct {
	bounds    []float64
	counts    []atomic.Int64 // len(bounds)+1, last is overflow
	count     atomic.Int64
	sum       atomic.Uint64              // float64 bits, CAS-accumulated
	exemplars []atomic.Pointer[Exemplar] // per bucket, latest observation wins
}

// Exemplar ties one concrete observation to the trace that produced it —
// the bridge from an aggregate percentile line to a retrievable request
// trace (GET /v1/traces/{trace_id}).
type Exemplar struct {
	Value   float64 `json:"value"`
	TraceID string  `json:"trace_id"`
}

// NewHistogram builds a histogram over the given bucket bounds (nil means
// LatencyBuckets). Bounds must be ascending; they are copied.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = LatencyBuckets
	}
	b := append([]float64(nil), bounds...)
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			panic("telemetry: histogram bounds must be ascending")
		}
	}
	return &Histogram{
		bounds:    b,
		counts:    make([]atomic.Int64, len(b)+1),
		exemplars: make([]atomic.Pointer[Exemplar], len(b)+1),
	}
}

// Observe folds one value in. Observations are durations and sizes: v
// must be finite, or Sum stops being a number the JSON rendering carries.
func (h *Histogram) Observe(v float64) { h.observe(v) }

// ObserveExemplar is Observe plus exemplar capture: the observation's
// trace ID is stored in its bucket's exemplar slot (latest observation
// wins), so tail-bucket entries let an exported p99 line point at a
// concrete retrievable trace. An empty trace ID degrades to Observe.
func (h *Histogram) ObserveExemplar(v float64, traceID string) {
	i := h.observe(v)
	if traceID != "" {
		h.exemplars[i].Store(&Exemplar{Value: v, TraceID: traceID})
	}
}

// observe folds one value in and returns its bucket index.
func (h *Histogram) observe(v float64) int {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, nv) {
			return i
		}
	}
}

// Count returns how many values were observed.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the running sum of observed values. A histogram with zero
// completed observations reports 0 (a racing Observe may have CAS-ed the
// sum before its bucket count landed; a half-applied observation must not
// leak).
func (h *Histogram) Sum() float64 {
	if h.count.Load() == 0 {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Cumulative returns the cumulative bucket counts: Cumulative()[i] is the
// number of observations ≤ the i-th bound, and the final element (the +Inf
// bucket) is the total count. Both renderings of an Export and the fleet
// federation merge consume this form — cumulative counts over shared
// fixed bounds merge exactly by element-wise addition.
func (h *Histogram) Cumulative() []int64 {
	out := make([]int64, len(h.counts))
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		out[i] = cum
	}
	return out
}

// Point captures the histogram's full state under the given name — what
// Registry.Export does for every registered histogram. The exemplar is
// the captured observation nearest the distribution's tail: scanning from
// the overflow bucket down, the first non-empty bucket holding one wins.
func (h *Histogram) Point(name string) HistogramPoint {
	p := HistogramPoint{Name: name, Bounds: append([]float64(nil), h.bounds...), Cumulative: h.Cumulative(), Sum: h.Sum()}
	for i := len(h.counts) - 1; i >= 0 && p.Exemplar == nil; i-- {
		if h.counts[i].Load() > 0 {
			p.Exemplar = h.exemplars[i].Load()
		}
	}
	return p
}

// Registry holds named metrics. Names are dotted lowercase paths
// ("core.session_diagnose.latency_ms"); getters create on first use and
// return the same instance afterwards, so instrumentation sites can
// resolve their metrics once at init and pay only atomic ops per event.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	runtime  bool // Export appends the process's runtime readings (runtime.go)
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}
}

// std is the process-wide registry every pipeline layer records into, and
// the one that exports the process's runtime readings.
var std = func() *Registry {
	r := New()
	r.runtime = true
	return r
}()

// Default returns the process-wide registry.
func Default() *Registry { return std }

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns (creating if needed) the named histogram; bounds apply
// only on first creation (nil means LatencyBuckets).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; !ok {
		h = NewHistogram(bounds)
		r.hists[name] = h
	}
	return h
}

// CounterPoint is one counter's exported value.
type CounterPoint struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugePoint is one gauge's exported value.
type GaugePoint struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// HistogramPoint is one histogram's full exported state: finite upper
// bounds plus cumulative counts (the final element is the +Inf bucket,
// i.e. the total count). It carries enough to derive any quantile — and
// to merge exactly across processes, because every DiagNet histogram of a
// given name shares the same fixed bounds.
type HistogramPoint struct {
	Name       string    `json:"name"`
	Bounds     []float64 `json:"bounds"`
	Cumulative []int64   `json:"cumulative"` // len(Bounds)+1; last = Count
	Sum        float64   `json:"sum"`
	Exemplar   *Exemplar `json:"exemplar,omitempty"` // tail exemplar
}

// MarshalJSON and UnmarshalJSON keep a gauge's JSON form total:
// encoding/json refuses NaN and ±Inf — and one diverged training epoch
// sets nn.train.loss to NaN — so those three values cross the wire as the
// strings "NaN", "+Inf", "-Inf" (strconv.FormatFloat's spellings) and
// decode back to the same value. Value stays a plain float64 for the code that
// does arithmetic on it.
func (g GaugePoint) MarshalJSON() ([]byte, error) {
	var v any = g.Value
	switch {
	case math.IsNaN(g.Value):
		v = "NaN"
	case math.IsInf(g.Value, 1):
		v = "+Inf"
	case math.IsInf(g.Value, -1):
		v = "-Inf"
	}
	return json.Marshal(struct {
		Name  string `json:"name"`
		Value any    `json:"value"`
	}{g.Name, v})
}

func (g *GaugePoint) UnmarshalJSON(b []byte) error {
	var w struct {
		Name  string          `json:"name"`
		Value json.RawMessage `json:"value"`
	}
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	g.Name = w.Name
	switch string(w.Value) {
	case `"NaN"`:
		g.Value = math.NaN()
	case `"+Inf"`:
		g.Value = math.Inf(1)
	case `"-Inf"`:
		g.Value = math.Inf(-1)
	default:
		return json.Unmarshal(w.Value, &g.Value)
	}
	return nil
}

// Count returns the total observation count (the +Inf bucket).
func (p *HistogramPoint) Count() int64 {
	if len(p.Cumulative) == 0 {
		return 0
	}
	return p.Cumulative[len(p.Cumulative)-1]
}

// Quantile interpolates the q-quantile from the cumulative buckets — the
// one quantile routine: linear interpolation inside the bucket, a rank in
// the overflow bucket saturates at the last finite bound (the histogram
// cannot resolve beyond it), and zero observations report the sentinel 0,
// never an interpolated value and never NaN (check Count before trusting
// a quantile).
func (p *HistogramPoint) Quantile(q float64) float64 {
	total := p.Count()
	if total <= 0 || len(p.Bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	var prev int64
	for i, cum := range p.Cumulative {
		c := cum - prev
		prev = cum
		if c == 0 || float64(cum) < rank {
			continue
		}
		if i >= len(p.Bounds) {
			return p.Bounds[len(p.Bounds)-1] // overflow: saturate at the last bound
		}
		lo := 0.0
		if i > 0 {
			lo = p.Bounds[i-1]
		}
		hi := p.Bounds[i]
		frac := (rank - float64(cum-c)) / float64(c)
		if frac < 0 {
			frac = 0
		}
		return lo + (hi-lo)*frac
	}
	return p.Bounds[len(p.Bounds)-1]
}

// Export is the one point-in-time view of a registry: every slice is
// sorted by metric name and histograms carry their full bucket state.
// Everything downstream consumes this form under these dotted names — the
// JSON rendering, the fleet federation merge, the SLO engine
// (internal/obs).
type Export struct {
	Counters   []CounterPoint   `json:"counters"`
	Gauges     []GaugePoint     `json:"gauges"`
	Histograms []HistogramPoint `json:"histograms"`
}

// Counter returns the named counter's value.
func (e *Export) Counter(name string) (int64, bool) {
	for i := range e.Counters {
		if e.Counters[i].Name == name {
			return e.Counters[i].Value, true
		}
	}
	return 0, false
}

// Gauge returns the named gauge's value.
func (e *Export) Gauge(name string) (float64, bool) {
	for i := range e.Gauges {
		if e.Gauges[i].Name == name {
			return e.Gauges[i].Value, true
		}
	}
	return 0, false
}

// Histogram returns the named histogram point.
func (e *Export) Histogram(name string) (*HistogramPoint, bool) {
	for i := range e.Histograms {
		if e.Histograms[i].Name == name {
			return &e.Histograms[i], true
		}
	}
	return nil, false
}

// Export captures every metric with full histogram bucket state, sorted
// by name (deterministic across calls and processes — no snapshot-diff
// churn, and a stable JSON ordering for scrapers).
func (r *Registry) Export() Export {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e := Export{
		Counters:   make([]CounterPoint, 0, len(r.counters)),
		Gauges:     make([]GaugePoint, 0, len(r.gauges)),
		Histograms: make([]HistogramPoint, 0, len(r.hists)),
	}
	for name, c := range r.counters {
		e.Counters = append(e.Counters, CounterPoint{Name: name, Value: c.Value()})
	}
	for name, g := range r.gauges {
		e.Gauges = append(e.Gauges, GaugePoint{Name: name, Value: g.Value()})
	}
	for name, h := range r.hists {
		e.Histograms = append(e.Histograms, h.Point(name))
	}
	if r.runtime {
		readRuntime(&e)
	}
	e.Sort()
	return e
}

// Sort orders every slice by metric name — the order Registry.Export
// promises; an Export assembled elsewhere (a fleet merge) restores it here.
func (e *Export) Sort() {
	sort.Slice(e.Counters, func(i, j int) bool { return e.Counters[i].Name < e.Counters[j].Name })
	sort.Slice(e.Gauges, func(i, j int) bool { return e.Gauges[i].Name < e.Gauges[j].Name })
	sort.Slice(e.Histograms, func(i, j int) bool { return e.Histograms[i].Name < e.Histograms[j].Name })
}

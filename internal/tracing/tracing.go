// Package tracing is DiagNet's dependency-free request-tracing substrate:
// spans with trace/span IDs, W3C traceparent propagation over
// context.Context, deterministic head sampling, and a lock-cheap recorder
// that keeps a bounded ring of completed traces plus an always-keep ring
// of slow and error traces.
//
// Where internal/telemetry answers "how slow is the p99", tracing answers
// "which request, which batch, which stage": one trace follows a request
// across the whole multi-tier pipeline — agent probe round → analysis
// upload → admission queue → micro-batch fuse → core Diagnose stages —
// and the two close the loop through exemplars (telemetry histograms
// record the trace ID of tail observations, so a p99 line points at a
// concrete retrievable trace).
//
// Not to be confused with collector.Trace, which records and replays probe
// *sessions* (measurement data); internal/tracing records request
// *executions* (causal timing).
//
// The hot path is built around nil no-op receivers, mirroring
// telemetry.StageClock: when tracing is disabled StartSpan returns a nil
// *Span and every method on it is a cheap no-op, so a disabled
// instrumentation site costs one atomic load and a branch.
package tracing

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"diagnet/internal/stats"
	"diagnet/internal/telemetry"
)

// Tracing-plane self-metrics: how many traces were kept, dropped by head
// sampling, or captured by the slow/error always-keep ring, and how many
// spans arrived after their trace was already finalized.
var (
	mTracesRecorded = telemetry.Default().Counter("tracing.traces.recorded")
	mTracesSlow     = telemetry.Default().Counter("tracing.traces.slow")
	mTracesError    = telemetry.Default().Counter("tracing.traces.error")
	mTracesSampled  = telemetry.Default().Counter("tracing.traces.dropped_unsampled")
	mSpansLate      = telemetry.Default().Counter("tracing.spans.late")
)

// Config tunes a Tracer. The zero value selects the documented defaults.
type Config struct {
	// SampleRate is the head-sampling probability in [0, 1] (default 1).
	// The decision is deterministic in the trace ID, so every tier that
	// sees the same trace makes the same call; it gates admission to the
	// normal ring only — slow and error traces are always kept.
	SampleRate float64
	// SlowThreshold marks a completed trace as slow when its local root
	// span lasted longer (default 250ms). Slow traces bypass sampling and
	// land in the always-keep ring.
	SlowThreshold time.Duration
	// Capacity bounds the ring of completed sampled traces (default 256).
	Capacity int
	// SlowCapacity bounds the always-keep ring of slow/error traces
	// (default 64) — a burst of healthy traffic can never evict the
	// interesting traces.
	SlowCapacity int
	// MaxSpans bounds the spans kept per trace (default 512); spans beyond
	// it are counted, not stored. The local root is always kept on top of
	// the bound so a full trace stays attributable.
	MaxSpans int
}

// withDefaults fills zero fields. A negative SampleRate means 0.
func (c Config) withDefaults() Config {
	if c.SampleRate == 0 {
		c.SampleRate = 1
	}
	if c.SampleRate < 0 {
		c.SampleRate = 0
	}
	if c.SampleRate > 1 {
		c.SampleRate = 1
	}
	if c.SlowThreshold <= 0 {
		c.SlowThreshold = 250 * time.Millisecond
	}
	if c.Capacity <= 0 {
		c.Capacity = 256
	}
	if c.SlowCapacity <= 0 {
		c.SlowCapacity = 64
	}
	if c.MaxSpans <= 0 {
		c.MaxSpans = 512
	}
	return c
}

// Tracer creates spans and records completed traces. Safe for concurrent
// use.
type Tracer struct {
	enabled atomic.Bool
	cfg     atomic.Pointer[Config]
	rec     recorder
}

// NewTracer returns a tracer with the given configuration, enabled.
func NewTracer(cfg Config) *Tracer {
	t := &Tracer{}
	t.Configure(cfg)
	t.enabled.Store(true)
	return t
}

// std is the process-wide tracer every pipeline layer records into,
// mirroring telemetry.Default().
var std = NewTracer(Config{})

// Default returns the process-wide tracer.
func Default() *Tracer { return std }

// Configure replaces the tracer's tuning (sampling, thresholds, ring
// capacities). Intended for process startup; already-recorded traces and
// open spans keep the bounds they started with.
func (t *Tracer) Configure(cfg Config) {
	cfg = cfg.withDefaults()
	t.cfg.Store(&cfg)
	t.rec.resize(cfg.Capacity, cfg.SlowCapacity)
}

// SetEnabled switches span creation on or off. Disabled, StartSpan
// returns a nil span and the whole instrumentation path reduces to one
// atomic load and a branch per call site.
func (t *Tracer) SetEnabled(on bool) { t.enabled.Store(on) }

// Enabled reports whether spans are being created.
func (t *Tracer) Enabled() bool { return t.enabled.Load() }

// SetEnabled switches the process-wide tracer.
func SetEnabled(on bool) { std.SetEnabled(on) }

// Configure tunes the process-wide tracer.
func Configure(cfg Config) { std.Configure(cfg) }

// idRand generates trace and span IDs from a private locked source
// instead of the global math/rand one: ID draws interleaved with other
// components' global draws would shift every seeded sequence in the
// process, so a deterministic soak run could never replay. Randomly
// seeded at init; SeedIDs pins it for reproducible runs.
var idRand = stats.NewLocked(time.Now().UnixNano())

// SeedIDs makes trace/span ID generation deterministic from the given
// seed — for seeded soak and replay runs where the whole process must be
// reproducible. IDs from one process are then only unique relative to
// that seed; production keeps the random default.
func SeedIDs(seed int64) { idRand.Reseed(seed) }

// newTraceID draws a random non-zero 16-byte trace ID.
func newTraceID() [16]byte {
	var id [16]byte
	for {
		binary.BigEndian.PutUint64(id[:8], idRand.Uint64())
		binary.BigEndian.PutUint64(id[8:], idRand.Uint64())
		if id != ([16]byte{}) {
			return id
		}
	}
}

// newSpanID draws a random non-zero 8-byte span ID.
func newSpanID() string {
	var id [8]byte
	for {
		binary.BigEndian.PutUint64(id[:], idRand.Uint64())
		if id != ([8]byte{}) {
			return hex.EncodeToString(id[:])
		}
	}
}

// sampled is the deterministic head-sampling decision for a trace ID: the
// ID's first 8 bytes, read as a uint64, are compared against the rate.
// Every tier computes the same verdict for the same trace.
func sampled(id [16]byte, rate float64) bool {
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	return float64(binary.BigEndian.Uint64(id[:8])) < rate*math.MaxUint64
}

// spanKey carries the active *Span in a context.
type spanKey struct{}

// remoteKey carries an extracted remote SpanContext in a context.
type remoteKey struct{}

// SpanContext identifies one span for propagation and linking.
type SpanContext struct {
	TraceID string `json:"trace_id"`
	SpanID  string `json:"span_id"`
	Sampled bool   `json:"-"`
}

// ContextWithSpan returns ctx carrying the span.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// FromContext returns the active span, or nil when the context carries
// none (every Span method is nil-safe, so callers need not check).
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// SpanEvent is a timestamped annotation inside a span.
type SpanEvent struct {
	OffsetMs float64 `json:"offset_ms"` // since span start
	Name     string  `json:"name"`
}

// SpanData is the immutable record of one completed span.
type SpanData struct {
	TraceID    string         `json:"trace_id"`
	SpanID     string         `json:"span_id"`
	ParentID   string         `json:"parent_id,omitempty"`
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationMs float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Events     []SpanEvent    `json:"events,omitempty"`
	Links      []SpanContext  `json:"links,omitempty"`
	Error      string         `json:"error,omitempty"`
}

// Span is one timed operation inside a trace. A nil *Span (tracing
// disabled, or no span in the context) no-ops on every method. A span's
// mutating methods are safe for concurrent use, though spans normally
// have a single owner.
type Span struct {
	buf   *traceBuf
	start time.Time
	ended atomic.Bool

	mu   sync.Mutex
	data SpanData
}

// StartSpan opens a span on the process-wide tracer. See Tracer.StartSpan.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return std.StartSpan(ctx, name)
}

// StartSpan opens a span named name: a child of the context's active span
// when there is one, otherwise a local root — continuing the trace of an
// extracted traceparent when the context carries one, or starting a fresh
// trace. It returns the context carrying the new span. When tracing is
// disabled it returns (ctx, nil) unchanged.
func (t *Tracer) StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	if !t.enabled.Load() {
		return ctx, nil
	}
	now := time.Now()
	if parent := FromContext(ctx); parent != nil {
		s := &Span{buf: parent.buf, start: now}
		s.data = SpanData{
			TraceID:  parent.data.TraceID,
			SpanID:   newSpanID(),
			ParentID: parent.data.SpanID,
			Name:     name,
			Start:    now,
		}
		return context.WithValue(ctx, spanKey{}, s), s
	}

	cfg := t.cfg.Load()
	var id [16]byte
	parentID := ""
	remoteSampled := false
	if rc, ok := ctx.Value(remoteKey{}).(SpanContext); ok {
		if raw, err := hex.DecodeString(rc.TraceID); err == nil && len(raw) == 16 {
			copy(id[:], raw)
			parentID = rc.SpanID
			remoteSampled = rc.Sampled
		}
	}
	if id == ([16]byte{}) {
		id = newTraceID()
	}
	buf := &traceBuf{
		tracer:  t,
		sampled: remoteSampled || sampled(id, cfg.SampleRate),
		max:     cfg.MaxSpans,
	}
	s := &Span{buf: buf, start: now}
	s.data = SpanData{
		TraceID:  hex.EncodeToString(id[:]),
		SpanID:   newSpanID(),
		ParentID: parentID,
		Name:     name,
		Start:    now,
	}
	buf.root = s
	return context.WithValue(ctx, spanKey{}, s), s
}

// TraceID returns the span's hex trace ID ("" on a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.data.TraceID
}

// Context returns the span's identity for propagation and linking.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return SpanContext{TraceID: s.data.TraceID, SpanID: s.data.SpanID, Sampled: s.buf.sampled}
}

// SetAttr attaches one key/value attribute.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.data.Attrs == nil {
		s.data.Attrs = map[string]any{}
	}
	s.data.Attrs[key] = value
	s.mu.Unlock()
}

// AddEvent records a timestamped annotation.
func (s *Span) AddEvent(name string) {
	if s == nil {
		return
	}
	off := float64(time.Since(s.start).Nanoseconds()) / 1e6
	s.mu.Lock()
	s.data.Events = append(s.data.Events, SpanEvent{OffsetMs: off, Name: name})
	s.mu.Unlock()
}

// Link attaches a reference to a span in another trace (a micro-batch
// span links the request spans it fused, and vice versa).
func (s *Span) Link(ref SpanContext) {
	if s == nil || ref.TraceID == "" {
		return
	}
	s.mu.Lock()
	s.data.Links = append(s.data.Links, SpanContext{TraceID: ref.TraceID, SpanID: ref.SpanID})
	s.mu.Unlock()
}

// SetError marks the span (and therefore its trace) as failed; error
// traces bypass head sampling into the always-keep ring.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.data.Error = err.Error()
	s.mu.Unlock()
}

// Child records an already-completed child span from explicit start/end
// stamps — how the core pipeline turns its StageClock laps into stage
// spans without re-plumbing contexts through every stage.
func (s *Span) Child(name string, start, end time.Time) {
	if s == nil {
		return
	}
	s.buf.add(SpanData{
		TraceID:    s.data.TraceID,
		SpanID:     newSpanID(),
		ParentID:   s.data.SpanID,
		Name:       name,
		Start:      start,
		DurationMs: float64(end.Sub(start).Nanoseconds()) / 1e6,
	})
}

// End completes the span. Ending the local root finalizes the trace into
// the recorder; spans ending after that are counted as late and dropped.
// End is idempotent.
func (s *Span) End() {
	if s == nil || s.ended.Swap(true) {
		return
	}
	s.mu.Lock()
	s.data.DurationMs = float64(time.Since(s.start).Nanoseconds()) / 1e6
	data := s.data
	s.mu.Unlock()
	s.buf.finish(s, data)
}

// StageSpans mirrors telemetry.StageClock for spans: each Mark records
// the lap since the previous mark as a completed child span of the parent
// span. A nil receiver (nil parent span) no-ops.
type StageSpans struct {
	sp   *Span
	last time.Time
}

// Stages opens a stage-span recorder on s, or nil when s is nil.
func (s *Span) Stages() *StageSpans {
	if s == nil {
		return nil
	}
	return &StageSpans{sp: s, last: time.Now()}
}

// Mark records the lap since the previous mark as a child span named name.
func (st *StageSpans) Mark(name string) {
	if st == nil {
		return
	}
	now := time.Now()
	st.sp.Child(name, st.last, now)
	st.last = now
}

// traceBuf accumulates the completed spans of one local trace. The local
// root span owns it; when the root ends the buffer is sealed and handed
// to the recorder.
type traceBuf struct {
	tracer  *Tracer
	root    *Span
	sampled bool
	max     int

	mu      sync.Mutex
	spans   []SpanData
	done    bool
	dropped int
}

// add appends one completed span, honoring the per-trace bound.
func (b *traceBuf) add(data SpanData) {
	b.mu.Lock()
	switch {
	case b.done:
		b.mu.Unlock()
		mSpansLate.Inc()
		return
	case len(b.spans) >= b.max:
		b.dropped++
	default:
		b.spans = append(b.spans, data)
	}
	b.mu.Unlock()
}

// finish records one ended span; the root's finish seals the trace and
// hands it to the recorder.
func (b *traceBuf) finish(s *Span, data SpanData) {
	b.mu.Lock()
	if b.done {
		b.mu.Unlock()
		mSpansLate.Inc()
		return
	}
	if len(b.spans) >= b.max && s != b.root {
		b.dropped++
	} else {
		b.spans = append(b.spans, data)
	}
	if s != b.root {
		b.mu.Unlock()
		return
	}
	b.done = true
	spans := b.spans
	dropped := b.dropped
	b.mu.Unlock()

	cfg := b.tracer.cfg.Load()
	rec := &TraceRecord{
		TraceID:      data.TraceID,
		Root:         data.Name,
		Start:        data.Start,
		DurationMs:   data.DurationMs,
		Slow:         time.Duration(data.DurationMs*1e6) > cfg.SlowThreshold,
		DroppedSpans: dropped,
		Spans:        spans,
	}
	for i := range spans {
		if spans[i].Error != "" {
			rec.Error = true
			break
		}
	}
	switch {
	case rec.Slow || rec.Error:
		if rec.Slow {
			mTracesSlow.Inc()
		}
		if rec.Error {
			mTracesError.Inc()
		}
		mTracesRecorded.Inc()
		b.tracer.rec.keep(rec, true)
	case b.sampled:
		mTracesRecorded.Inc()
		b.tracer.rec.keep(rec, false)
	default:
		mTracesSampled.Inc()
	}
}

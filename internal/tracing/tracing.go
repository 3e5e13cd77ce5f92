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
// The hot path is built around nil no-op receivers: when tracing is
// disabled StartSpan returns a nil *Span and every method on it is a cheap
// no-op, so a disabled instrumentation site costs one atomic load and a
// branch. A timed boundary of the request path is a Stage (stage.go): one
// name for its span and its latency histogram, timed by one Clock.
package tracing

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"math"
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
func newSpanID() [8]byte {
	var id [8]byte
	for {
		binary.BigEndian.PutUint64(id[:], idRand.Uint64())
		if id != ([8]byte{}) {
			return id
		}
	}
}

// parseHex decodes s, lowercase hex of exactly 2·len(dst) digits, into
// dst; it reports false, leaving dst partly written, on anything else.
func parseHex(dst []byte, s string) bool {
	if len(s) != 2*len(dst) || !isLowerHex(s) {
		return false
	}
	for i := range dst {
		dst[i] = byte(hexNibble(s[2*i])<<4 | hexNibble(s[2*i+1]))
	}
	return true
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

// Span is one timed operation inside a trace. A nil *Span (tracing
// disabled, or no span in the context) no-ops on every method.
//
// A span holds only its identity and clock: its name, timing, attributes,
// links and error are written into its trace's storage (a traceBuf), under
// that storage's mutex, so the methods are safe for concurrent use. End
// seals the span — a later SetAttr, SetError or Link is a no-op — because
// once the trace is over its storage belongs to the recorder, which reuses
// it for another trace.
type Span struct {
	buf      *traceBuf
	gen      uint64 // buf's generation at the trace's start; reuse bumps it
	slot     int32  // index into buf.spans; -1 when the span is not stored
	ended    bool   // guarded by buf.mu
	inSample bool   // the trace passed head sampling
	traceID  string // lowercase hex, shared by the trace's spans
	id       [8]byte
	start    time.Time
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
		s := parent.child(name, now)
		return context.WithValue(ctx, spanKey{}, s), s
	}

	cfg := t.cfg.Load()
	var id [16]byte
	var parentID [8]byte
	s := &Span{start: now}
	if rc, ok := ctx.Value(remoteKey{}).(SpanContext); ok && parseHex(id[:], rc.TraceID) && parseHex(parentID[:], rc.SpanID) {
		s.traceID, s.inSample = rc.TraceID, rc.Sampled
	} else {
		id, parentID = newTraceID(), [8]byte{}
		var buf [32]byte
		hex.Encode(buf[:], id[:])
		s.traceID = string(buf[:])
	}
	s.inSample = s.inSample || sampled(id, cfg.SampleRate)
	s.id = newSpanID()
	s.buf = t.rec.take(t)
	s.gen = s.buf.open(id, s.inSample, cfg.MaxSpans, spanRec{name: name, start: now.UnixNano(), dur: spanOpen, id: s.id, parent: parentID})
	return context.WithValue(ctx, spanKey{}, s), s
}

// child opens a span named name under s, starting at now.
func (s *Span) child(name string, now time.Time) *Span {
	c := &Span{buf: s.buf, gen: s.gen, inSample: s.inSample, traceID: s.traceID, id: newSpanID(), start: now}
	c.slot = s.buf.reserve(s.gen, spanRec{name: name, start: now.UnixNano(), dur: spanOpen, id: c.id, parent: s.id})
	return c
}

// TraceID returns the span's hex trace ID ("" on a nil span).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.traceID
}

// sampled reports whether the span's trace passed head sampling: only then
// does a Clock record its laps as child spans.
func (s *Span) sampled() bool { return s != nil && s.inSample }

// kept reports whether the recorder will keep the span's trace, as far as
// a span that lasted d can tell: it was sampled, the span failed, or d
// alone makes the trace slow. (A failure elsewhere in the trace keeps it
// too.)
func (s *Span) kept(d time.Duration) bool {
	if s == nil {
		return false
	}
	if s.inSample || d > s.buf.tracer.cfg.Load().SlowThreshold {
		return true
	}
	b := s.buf
	b.mu.Lock()
	defer b.mu.Unlock()
	return s.gen == b.gen && s.slot >= 0 && b.spans[s.slot].err != ""
}

// Context returns the span's identity for propagation and linking.
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	var id [16]byte
	hex.Encode(id[:], s.id[:])
	return SpanContext{TraceID: s.traceID, SpanID: string(id[:]), Sampled: s.inSample}
}

// SetAttr attaches one key/value attribute; setting a key again replaces
// its value. A string, bool, int or float64 is recorded as it is; a value
// of any other type is recorded as null.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	a := attrRec{key: key}
	switch v := value.(type) {
	case string:
		a.kind, a.str = attrString, v
	case bool:
		a.kind = attrBool
		if v {
			a.num = 1
		}
	case int:
		a.kind, a.num = attrInt, uint64(v)
	case float64:
		a.kind, a.num = attrFloat64, math.Float64bits(v)
	}
	b := s.buf
	b.mu.Lock()
	if b.writable(s) {
		b.setAttr(s.slot, a)
	}
	b.mu.Unlock()
}

// Link attaches a reference to a span in another trace (a micro-batch
// span links the request spans it fused, and vice versa). A reference
// whose IDs are not lowercase hex of the W3C widths is ignored.
func (s *Span) Link(ref SpanContext) {
	if s == nil {
		return
	}
	var l linkRec
	if !parseHex(l.trace[:], ref.TraceID) || !parseHex(l.id[:], ref.SpanID) {
		return
	}
	b := s.buf
	b.mu.Lock()
	if b.writable(s) {
		l.span = s.slot
		b.links = append(b.links, l)
	}
	b.mu.Unlock()
}

// SetError marks the span (and therefore its trace) as failed; error
// traces bypass head sampling into the always-keep ring.
func (s *Span) SetError(err error) {
	if s == nil || err == nil {
		return
	}
	msg := err.Error()
	b := s.buf
	b.mu.Lock()
	if b.writable(s) {
		b.spans[s.slot].err = msg
	}
	b.mu.Unlock()
}

// End completes and seals the span. Ending the local root finalizes the
// trace into the recorder; spans ending after that are counted as late
// and dropped. End is idempotent.
func (s *Span) End() {
	if s == nil {
		return
	}
	d := float64(time.Since(s.start).Nanoseconds()) / 1e6
	b := s.buf
	b.mu.Lock()
	if s.ended {
		b.mu.Unlock()
		return
	}
	s.ended = true
	if s.gen != b.gen || b.done {
		b.mu.Unlock()
		mSpansLate.Inc()
		return
	}
	if s.slot >= 0 {
		b.spans[s.slot].dur = d
	}
	if s.slot != 0 {
		b.mu.Unlock()
		return
	}
	b.finish() // unlocks b.mu
}

// mark records a completed child span of s named name — a Clock's lap,
// timed by its two stamps rather than by a Span of its own.
func (s *Span) mark(name string, start time.Time, ms float64) {
	id := newSpanID()
	b := s.buf
	b.mu.Lock()
	defer b.mu.Unlock()
	if s.gen != b.gen || b.done {
		mSpansLate.Inc()
		return
	}
	b.add(spanRec{name: name, start: start.UnixNano(), dur: ms, id: id, parent: s.id})
}

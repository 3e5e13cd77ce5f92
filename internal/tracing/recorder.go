package tracing

import (
	"encoding/hex"
	"math"
	"sort"
	"sync"
	"time"
)

// TraceRecord is one completed trace as a reader receives it: the root
// span's identity plus every span recorded before the root ended (flat;
// Tree nests them). It is a copy, built under the recorder's mutex, and
// shares no memory with the recorder's storage.
type TraceRecord struct {
	TraceID      string     `json:"trace_id"`
	Root         string     `json:"root"`
	Start        time.Time  `json:"start"`
	DurationMs   float64    `json:"duration_ms"`
	Error        bool       `json:"error"`
	Slow         bool       `json:"slow"`
	DroppedSpans int        `json:"dropped_spans,omitempty"`
	Spans        []SpanData `json:"spans"`
}

// SpanData is one completed span as a reader receives it.
type SpanData struct {
	TraceID    string         `json:"trace_id"`
	SpanID     string         `json:"span_id"`
	ParentID   string         `json:"parent_id,omitempty"`
	Name       string         `json:"name"`
	Start      time.Time      `json:"start"`
	DurationMs float64        `json:"duration_ms"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Links      []SpanContext  `json:"links,omitempty"`
	Error      string         `json:"error,omitempty"`
}

// TraceSummary is the listing view of one completed trace.
type TraceSummary struct {
	TraceID    string    `json:"trace_id"`
	Root       string    `json:"root"`
	Start      time.Time `json:"start"`
	DurationMs float64   `json:"duration_ms"`
	Spans      int       `json:"spans"`
	Error      bool      `json:"error"`
	Slow       bool      `json:"slow"`
}

// SpanNode is one span with its children — the JSON span tree served by
// GET /v1/traces/{id}.
type SpanNode struct {
	SpanData
	Children []*SpanNode `json:"children,omitempty"`
}

// Tree nests the record's spans by parent ID. Spans whose parent is
// remote or was dropped surface as roots, earliest first; siblings are
// ordered by start time.
func (r *TraceRecord) Tree() []*SpanNode {
	nodes := make(map[string]*SpanNode, len(r.Spans))
	for i := range r.Spans {
		nodes[r.Spans[i].SpanID] = &SpanNode{SpanData: r.Spans[i]}
	}
	var roots []*SpanNode
	for _, n := range nodes {
		if p, ok := nodes[n.ParentID]; ok && n.ParentID != n.SpanID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	var sortNodes func(ns []*SpanNode)
	sortNodes = func(ns []*SpanNode) {
		sort.Slice(ns, func(i, j int) bool { return ns[i].Start.Before(ns[j].Start) })
		for _, n := range ns {
			sortNodes(n.Children)
		}
	}
	sortNodes(roots)
	return roots
}

// spanOpen is the duration of a stored span that has not ended.
const spanOpen = -1

// spanRec is one span as a trace's storage holds it. The trace ID is the
// storage's own; a zero parent is no parent.
type spanRec struct {
	name       string
	err        string
	start      int64   // wall clock, Unix nanoseconds
	dur        float64 // milliseconds; spanOpen until End
	id, parent [8]byte
}

// attrKind is the Go type an attribute value was set with.
type attrKind uint8

const (
	attrOther attrKind = iota // recorded as null
	attrString
	attrBool
	attrInt
	attrFloat64
)

// attrRec is one attribute of the span in slot span: a string in str, any
// other kind in num's bits.
type attrRec struct {
	key  string
	str  string
	num  uint64
	span int32
	kind attrKind
}

// value is the attribute as the Go value it was set with.
func (a *attrRec) value() any {
	switch a.kind {
	case attrString:
		return a.str
	case attrBool:
		return a.num == 1
	case attrInt:
		return int(int64(a.num))
	case attrFloat64:
		return math.Float64frombits(a.num)
	}
	return nil
}

// linkRec is one link of the span in slot span.
type linkRec struct {
	trace [16]byte
	id    [8]byte
	span  int32
}

// traceBuf is the storage of one local trace: its spans, the root in slot
// 0, and their attributes and links, each a flat array indexed by span
// slot. Spans write into it while the trace runs; when the root ends it is
// sealed and handed to the recorder, which keeps it in a ring or, when
// head sampling drops the trace, takes it back at once. Storage the rings
// evict or never keep is reused for a later trace, arrays and all, so a
// recorded trace allocates no span arrays once the rings are full. gen
// counts the uses: a span of an earlier use finds it changed and writes
// nothing.
type traceBuf struct {
	tracer *Tracer

	mu      sync.Mutex
	gen     uint64
	id      [16]byte
	max     int // spans stored beside the root
	sampled bool
	done    bool
	dropped int
	spans   []spanRec
	attrs   []attrRec
	links   []linkRec

	// Set when the root ends; read-only while the trace is kept.
	closed       int // spans that ended before the root did
	failed, slow bool
	next         *traceBuf // the next kept local root of the same trace ID
}

// open starts a new use of b for trace id, with root in slot 0, and
// returns the use's generation.
func (b *traceBuf) open(id [16]byte, sampled bool, max int, root spanRec) uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.gen++
	b.id, b.sampled, b.max, b.done, b.dropped = id, sampled, max, false, 0
	b.closed, b.failed, b.slow, b.next = 0, false, false, nil
	// Clear what the last use stored so its strings can be collected.
	clear(b.spans)
	clear(b.attrs)
	b.spans = append(b.spans[:0], root)
	b.attrs, b.links = b.attrs[:0], b.links[:0]
	return b.gen
}

// add stores one span, honoring the per-trace bound; b.mu is held.
func (b *traceBuf) add(rec spanRec) bool {
	if len(b.spans) > b.max {
		b.dropped++
		return false
	}
	b.spans = append(b.spans, rec)
	return true
}

// reserve stores an open span of use gen and returns its slot, or -1 when
// the bound is reached or the use is over.
func (b *traceBuf) reserve(gen uint64, rec spanRec) int32 {
	b.mu.Lock()
	defer b.mu.Unlock()
	if gen != b.gen || b.done || !b.add(rec) {
		return -1
	}
	return int32(len(b.spans) - 1)
}

// writable reports whether s may still write into b: it is stored, it has
// not ended, and its trace is b's current, running one. b.mu is held.
func (b *traceBuf) writable(s *Span) bool {
	return s.gen == b.gen && !b.done && !s.ended && s.slot >= 0
}

// setAttr sets a on the span in slot, replacing an earlier value of the
// same key; b.mu is held.
func (b *traceBuf) setAttr(slot int32, a attrRec) {
	a.span = slot
	for i := len(b.attrs) - 1; i >= 0; i-- {
		if b.attrs[i].span == slot && b.attrs[i].key == a.key {
			b.attrs[i] = a
			return
		}
	}
	b.attrs = append(b.attrs, a)
}

// finish seals the trace once its root has ended and hands it to the
// recorder. b.mu is held on entry and released.
func (b *traceBuf) finish() {
	b.done = true
	for i := range b.spans {
		if b.spans[i].dur != spanOpen {
			b.closed++
			b.failed = b.failed || b.spans[i].err != ""
		}
	}
	cfg := b.tracer.cfg.Load()
	b.slow = time.Duration(b.spans[0].dur*1e6) > cfg.SlowThreshold
	slow, failed, sampled := b.slow, b.failed, b.sampled
	b.mu.Unlock()

	rec := &b.tracer.rec
	switch {
	case slow || failed:
		if slow {
			mTracesSlow.Inc()
		}
		if failed {
			mTracesError.Inc()
		}
		mTracesRecorded.Inc()
		rec.keep(b, true)
	case sampled:
		mTracesRecorded.Inc()
		rec.keep(b, false)
	default:
		mTracesSampled.Inc()
		rec.mu.Lock()
		rec.release(b)
		rec.mu.Unlock()
	}
}

// appendSpans appends copies of the trace's ended spans to out, with
// their attributes and links, under the hex trace ID traceID.
func (b *traceBuf) appendSpans(out []SpanData, traceID string) []SpanData {
	pos := make([]int, len(b.spans))
	for i := range b.spans {
		r := &b.spans[i]
		if r.dur == spanOpen {
			pos[i] = -1
			continue
		}
		pos[i] = len(out)
		sd := SpanData{TraceID: traceID, SpanID: hex.EncodeToString(r.id[:]), Name: r.name,
			Start: time.Unix(0, r.start), DurationMs: r.dur, Error: r.err}
		if r.parent != ([8]byte{}) {
			sd.ParentID = hex.EncodeToString(r.parent[:])
		}
		out = append(out, sd)
	}
	for i := range b.attrs {
		a := &b.attrs[i]
		if p := pos[a.span]; p >= 0 {
			if out[p].Attrs == nil {
				out[p].Attrs = map[string]any{}
			}
			out[p].Attrs[a.key] = a.value()
		}
	}
	for _, l := range b.links {
		if p := pos[l.span]; p >= 0 {
			out[p].Links = append(out[p].Links, SpanContext{TraceID: hex.EncodeToString(l.trace[:]), SpanID: hex.EncodeToString(l.id[:])})
		}
	}
	return out
}

// maxIdle bounds the storage kept idle for reuse beyond what the rings
// hold: enough for the traces a busy replica has in flight at once.
const maxIdle = 64

// recorder keeps completed traces in two FIFO rings: sampled traces, and
// the always-keep ring of slow/error traces. Its mutex is taken twice per
// trace — to take storage when the root starts and to keep or release it
// when the root ends — never per span.
type recorder struct {
	mu   sync.Mutex
	ring ringBuf
	slow ringBuf
	byID map[[16]byte]*traceBuf // kept local roots, chained by next
	idle []*traceBuf            // storage to reuse
}

// ringBuf is a fixed-capacity FIFO of kept traces.
type ringBuf struct {
	recs []*traceBuf
	next int
	size int
}

// add stores b, returning the trace it evicted (nil when none).
func (rb *ringBuf) add(b *traceBuf) *traceBuf {
	if len(rb.recs) == 0 {
		return b // capacity 0: drop immediately
	}
	old := rb.recs[rb.next]
	rb.recs[rb.next] = b
	rb.next = (rb.next + 1) % len(rb.recs)
	if rb.size < len(rb.recs) {
		rb.size++
		return nil
	}
	return old
}

// resize re-allocates the rings (startup-time configuration; existing
// records are discarded).
func (r *recorder) resize(capacity, slowCapacity int) {
	r.mu.Lock()
	r.ring = ringBuf{recs: make([]*traceBuf, capacity)}
	r.slow = ringBuf{recs: make([]*traceBuf, slowCapacity)}
	r.byID = make(map[[16]byte]*traceBuf)
	r.idle = nil
	r.mu.Unlock()
}

// take returns storage for a new trace of t: idle storage when there is
// some, else new.
func (r *recorder) take(t *Tracer) *traceBuf {
	r.mu.Lock()
	if n := len(r.idle); n > 0 {
		b := r.idle[n-1]
		r.idle = r.idle[:n-1]
		r.mu.Unlock()
		return b
	}
	r.mu.Unlock()
	return &traceBuf{tracer: t}
}

// release makes b's storage idle, for a later trace to reuse; r.mu is
// held.
func (r *recorder) release(b *traceBuf) {
	if len(r.idle) < maxIdle {
		r.idle = append(r.idle, b)
	}
}

// keep stores one completed trace, evicting the oldest of its ring.
func (r *recorder) keep(b *traceBuf, alwaysKeep bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rb := &r.ring
	if alwaysKeep {
		rb = &r.slow
	}
	switch evicted := rb.add(b); evicted {
	case b:
		r.release(b)
		return
	case nil:
	default:
		r.unindex(evicted)
		r.release(evicted)
	}
	p := r.byID[b.id]
	if p == nil {
		r.byID[b.id] = b
		return
	}
	for p.next != nil {
		p = p.next
	}
	p.next = b
}

// unindex removes one kept trace from the by-ID index.
func (r *recorder) unindex(b *traceBuf) {
	switch head := r.byID[b.id]; {
	case head == b && b.next == nil:
		delete(r.byID, b.id)
	case head == b:
		r.byID[b.id] = b.next
	case head != nil:
		for p := head; p.next != nil; p = p.next {
			if p.next == b {
				p.next = b.next
				break
			}
		}
	}
	b.next = nil
}

// list returns every kept trace, newest first. See Tracer.Traces.
func (r *recorder) list() []TraceSummary {
	r.mu.Lock()
	out := make([]TraceSummary, 0, r.ring.size+r.slow.size)
	for _, rb := range []*ringBuf{&r.slow, &r.ring} {
		for _, b := range rb.recs {
			if b == nil {
				continue
			}
			root := &b.spans[0]
			out = append(out, TraceSummary{
				TraceID:    hex.EncodeToString(b.id[:]),
				Root:       root.name,
				Start:      time.Unix(0, root.start),
				DurationMs: root.dur,
				Spans:      b.closed,
				Error:      b.failed,
				Slow:       b.slow,
			})
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start.After(out[j].Start) })
	return out
}

// get returns a copy of the kept trace with the given ID. Multiple local
// roots of the same trace (an in-process agent + server sharing one
// tracer) merge into a single record.
func (r *recorder) get(id string) (*TraceRecord, bool) {
	var key [16]byte
	if !parseHex(key[:], id) {
		return nil, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b := r.byID[key]
	if b == nil {
		return nil, false
	}
	merged := &TraceRecord{TraceID: id}
	for ; b != nil; b = b.next {
		root := &b.spans[0]
		if start := time.Unix(0, root.start); merged.Start.IsZero() || start.Before(merged.Start) {
			merged.Root = root.name
			merged.Start = start
		}
		if root.dur > merged.DurationMs {
			merged.DurationMs = root.dur
		}
		merged.Error = merged.Error || b.failed
		merged.Slow = merged.Slow || b.slow
		merged.DroppedSpans += b.dropped
		merged.Spans = b.appendSpans(merged.Spans, id)
	}
	return merged, true
}

// Traces lists the tracer's kept traces, newest first: the always-keep
// slow/error ring plus the sampled ring.
func (t *Tracer) Traces() []TraceSummary { return t.rec.list() }

// Trace returns a copy of the kept trace with the given hex ID.
func (t *Tracer) Trace(id string) (*TraceRecord, bool) { return t.rec.get(id) }

package tracing

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"
)

// newTestTracer returns an isolated tracer (tests must not pollute the
// process-wide recorder that examples and the analysis plane read).
func newTestTracer(cfg Config) *Tracer { return NewTracer(cfg) }

func TestSpanNesting(t *testing.T) {
	tr := newTestTracer(Config{})
	ctx, root := tr.StartSpan(context.Background(), "root")
	if root == nil {
		t.Fatal("enabled tracer returned nil span")
	}
	ctx2, child := tr.StartSpan(ctx, "child")
	_, grand := tr.StartSpan(ctx2, "grandchild")
	grand.SetAttr("k", 42)
	grand.End()
	child.End()
	root.End()

	rec, ok := tr.Trace(root.TraceID())
	if !ok {
		t.Fatalf("trace %s not kept", root.TraceID())
	}
	if len(rec.Spans) != 3 {
		t.Fatalf("want 3 spans, got %d", len(rec.Spans))
	}
	tree := rec.Tree()
	if len(tree) != 1 || tree[0].Name != "root" {
		t.Fatalf("bad tree roots: %+v", tree)
	}
	if len(tree[0].Children) != 1 || tree[0].Children[0].Name != "child" {
		t.Fatalf("bad child level: %+v", tree[0].Children)
	}
	gc := tree[0].Children[0].Children
	if len(gc) != 1 || gc[0].Name != "grandchild" {
		t.Fatalf("bad grandchild level: %+v", gc)
	}
	if gc[0].Attrs["k"] != 42 {
		t.Fatalf("attr lost: %v", gc[0].Attrs)
	}
}

func TestNilSpanNoops(t *testing.T) {
	var s *Span
	s.SetAttr("k", 1)
	s.SetError(errors.New("x"))
	s.Link(SpanContext{TraceID: "t", SpanID: "s"})
	s.End()
	if s.TraceID() != "" {
		t.Fatal("nil span has a trace ID")
	}
	if got := (s.Context()); got != (SpanContext{}) {
		t.Fatalf("nil span context: %+v", got)
	}
}

func TestDisabledTracerReturnsNil(t *testing.T) {
	tr := newTestTracer(Config{})
	tr.SetEnabled(false)
	ctx, s := tr.StartSpan(context.Background(), "x")
	if s != nil {
		t.Fatal("disabled tracer returned a span")
	}
	if FromContext(ctx) != nil {
		t.Fatal("disabled tracer stored a span in the context")
	}
}

func TestErrorTraceAlwaysKept(t *testing.T) {
	// SampleRate 0 drops every healthy trace; the error trace must survive.
	tr := newTestTracer(Config{SampleRate: -1}) // -1 → clamped to 0
	_, healthy := tr.StartSpan(context.Background(), "healthy")
	healthyID := healthy.TraceID()
	healthy.End()
	if _, ok := tr.Trace(healthyID); ok {
		t.Fatal("unsampled healthy trace was kept")
	}
	_, s := tr.StartSpan(context.Background(), "failing")
	s.SetError(errors.New("boom"))
	id := s.TraceID()
	s.End()
	rec, ok := tr.Trace(id)
	if !ok || !rec.Error {
		t.Fatalf("error trace not kept (ok=%v rec=%+v)", ok, rec)
	}
}

func TestSlowTraceAlwaysKept(t *testing.T) {
	tr := newTestTracer(Config{SampleRate: -1, SlowThreshold: time.Nanosecond})
	_, s := tr.StartSpan(context.Background(), "slow")
	id := s.TraceID()
	time.Sleep(50 * time.Microsecond)
	s.End()
	rec, ok := tr.Trace(id)
	if !ok || !rec.Slow {
		t.Fatalf("slow trace not kept (ok=%v)", ok)
	}
}

func TestDeterministicSampling(t *testing.T) {
	// The same trace ID must get the same verdict at any rate, and the
	// accept fraction should roughly match the rate.
	id := newTraceID()
	for i := 0; i < 3; i++ {
		if sampled(id, 0.5) != sampled(id, 0.5) {
			t.Fatal("sampling not deterministic")
		}
	}
	accepted := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if sampled(newTraceID(), 0.25) {
			accepted++
		}
	}
	if frac := float64(accepted) / n; frac < 0.18 || frac > 0.32 {
		t.Fatalf("accept fraction %.3f far from rate 0.25", frac)
	}
	if !sampled(id, 1) || sampled(id, 0) {
		t.Fatal("rate extremes broken")
	}
}

func TestRingEviction(t *testing.T) {
	tr := newTestTracer(Config{Capacity: 2, SlowCapacity: 1})
	var ids []string
	for i := 0; i < 4; i++ {
		_, s := tr.StartSpan(context.Background(), "r")
		ids = append(ids, s.TraceID())
		s.End()
	}
	if _, ok := tr.Trace(ids[0]); ok {
		t.Fatal("oldest trace survived a full ring")
	}
	for _, id := range ids[2:] {
		if _, ok := tr.Trace(id); !ok {
			t.Fatalf("recent trace %s evicted", id)
		}
	}
	if got := len(tr.Traces()); got != 2 {
		t.Fatalf("want 2 listed traces, got %d", got)
	}
}

func TestMaxSpansBound(t *testing.T) {
	tr := newTestTracer(Config{MaxSpans: 4})
	ctx, root := tr.StartSpan(context.Background(), "root")
	for i := 0; i < 10; i++ {
		_, c := tr.StartSpan(ctx, "child")
		c.End()
	}
	root.End()
	rec, ok := tr.Trace(root.TraceID())
	if !ok {
		t.Fatal("trace not kept")
	}
	// 4 children fill the bound, 6 more are dropped; the root itself is
	// always kept so the record stays attributable.
	if len(rec.Spans) != 5 {
		t.Fatalf("span bound not enforced: %d spans", len(rec.Spans))
	}
	if rec.DroppedSpans != 6 {
		t.Fatalf("want 6 dropped spans, got %d", rec.DroppedSpans)
	}
}

func TestLateSpanDropped(t *testing.T) {
	tr := newTestTracer(Config{})
	ctx, root := tr.StartSpan(context.Background(), "root")
	_, straggler := tr.StartSpan(ctx, "straggler")
	root.End()
	straggler.End() // after finalize: must not corrupt the record
	rec, _ := tr.Trace(root.TraceID())
	if len(rec.Spans) != 1 {
		t.Fatalf("late span leaked into the record: %d spans", len(rec.Spans))
	}
}

func TestRemoteParentContinuesTrace(t *testing.T) {
	tr := newTestTracer(Config{})
	sc := SpanContext{
		TraceID: strings.Repeat("ab", 16),
		SpanID:  strings.Repeat("cd", 8),
		Sampled: true,
	}
	ctx := context.WithValue(context.Background(), remoteKey{}, sc)
	_, s := tr.StartSpan(ctx, "server-side")
	if s.TraceID() != sc.TraceID {
		t.Fatalf("trace ID not continued: %s", s.TraceID())
	}
	s.End()
	rec, ok := tr.Trace(sc.TraceID)
	if !ok {
		t.Fatal("remote-sampled trace not kept")
	}
	if rec.Spans[0].ParentID != sc.SpanID {
		t.Fatalf("remote parent lost: %q", rec.Spans[0].ParentID)
	}
}

func TestTraceRecordJSONRoundTrip(t *testing.T) {
	tr := newTestTracer(Config{})
	ctx, root := tr.StartSpan(context.Background(), "root")
	_, c := tr.StartSpan(ctx, "child")
	c.SetAttr("n", 1.5)
	c.End()
	root.End()
	rec, _ := tr.Trace(root.TraceID())
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back TraceRecord
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.TraceID != rec.TraceID || len(back.Spans) != 2 {
		t.Fatalf("round trip mangled record: %+v", back)
	}
}

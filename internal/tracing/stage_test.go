package tracing

import (
	"context"
	"errors"
	"testing"
	"time"

	"diagnet/internal/telemetry"
)

// TestClockDisabled: with telemetry off and no span a clock reads no time
// and records nothing.
func TestClockDisabled(t *testing.T) {
	telemetry.SetEnabled(false)
	defer telemetry.SetEnabled(true)
	reg := telemetry.New()
	op, lap := NewStage(reg, "op"), NewStage(reg, "op.lap")
	c := op.Start(context.Background())
	c.Mark(lap)
	c.End()
	ex := reg.Export()
	for _, name := range []string{"op", "op.lap"} {
		if h, _ := ex.Histogram(LatencyName(name)); h.Count() != 0 {
			t.Fatalf("disabled timing observed %s", name)
		}
	}
}

// TestClockMarksAndTotal: each mark is one lap of its stage and End is the
// total of the run's own stage, covering every lap.
func TestClockMarksAndTotal(t *testing.T) {
	reg := telemetry.New()
	op, a, b := NewStage(reg, "op"), NewStage(reg, "op.a"), NewStage(reg, "op.b")
	c := op.Start(context.Background())
	time.Sleep(time.Millisecond)
	c.Mark(a)
	time.Sleep(time.Millisecond)
	c.Mark(b)
	c.End()

	ex := reg.Export()
	sum := map[string]float64{}
	for _, name := range []string{"op", "op.a", "op.b"} {
		h, ok := ex.Histogram(LatencyName(name))
		if !ok || h.Count() != 1 {
			t.Fatalf("%s: want one observation, got %+v", name, h)
		}
		sum[name] = h.Sum
	}
	if sum["op.a"] <= 0 || sum["op.b"] <= 0 || sum["op"] < sum["op.a"]+sum["op.b"] {
		t.Fatalf("laps %v/%v must be positive and within the total %v", sum["op.a"], sum["op.b"], sum["op"])
	}
}

// TestClockEndExemplar: End records one total carrying the run's trace ID as
// its exemplar; a run outside any request records its total without one.
func TestClockEndExemplar(t *testing.T) {
	op := NewStage(telemetry.New(), "op")
	ctx, root := newTestTracer(Config{}).StartSpan(context.Background(), "root")
	c := op.Start(ctx)
	c.End()
	root.End()
	if h := op.hist.Point(""); h.Count() != 1 || h.Exemplar == nil || h.Exemplar.TraceID != root.TraceID() {
		t.Fatalf("total lacks the trace's exemplar: %+v", h)
	}

	bare := NewStage(telemetry.New(), "bare")
	c = bare.Start(context.Background())
	c.End()
	if h := bare.hist.Point(""); h.Count() != 1 || h.Exemplar != nil {
		t.Fatalf("a run without a trace: want one total and no exemplar, got %+v", h)
	}
}

// TestClockSpansOnlyWhenSampled: in a sampled trace a run is a child span of
// the request with one child per mark, named by the stages; in an unsampled
// one the run keeps its own span (a slow or failed trace is still kept) but
// its marks record no span and allocate nothing.
func TestClockSpansOnlyWhenSampled(t *testing.T) {
	reg := telemetry.New()
	op, a, b := NewStage(reg, "op"), NewStage(reg, "op.a"), NewStage(reg, "op.b")
	run := func(tr *Tracer) (*TraceRecord, bool) {
		ctx, root := tr.StartSpan(context.Background(), "root")
		c := op.Start(ctx)
		c.Mark(a)
		c.Mark(b)
		c.End()
		root.End()
		return tr.Trace(root.TraceID())
	}

	rec, ok := run(newTestTracer(Config{}))
	if !ok {
		t.Fatal("sampled trace not kept")
	}
	parent := map[string]string{}
	ids := map[string]string{}
	for _, sp := range rec.Spans {
		parent[sp.Name], ids[sp.Name] = sp.ParentID, sp.SpanID
	}
	if parent["op"] != ids["root"] || parent["op.a"] != ids["op"] || parent["op.b"] != ids["op"] || len(rec.Spans) != 4 {
		t.Fatalf("want root → op → {op.a, op.b}, got %+v", rec.Spans)
	}

	// Unsampled, but slow: kept, with the run's span and no lap spans.
	rec, ok = run(newTestTracer(Config{SampleRate: -1, SlowThreshold: time.Nanosecond}))
	if !ok || len(rec.Spans) != 2 {
		t.Fatalf("unsampled slow trace: want root and op only, got %+v", rec)
	}

	tr := newTestTracer(Config{SampleRate: -1})
	ctx, root := tr.StartSpan(context.Background(), "root")
	defer root.End()
	c := op.Start(ctx)
	if allocs := testing.AllocsPerRun(100, func() { c.Mark(a) }); allocs != 0 {
		t.Fatalf("an unsampled mark allocates %v times", allocs)
	}
}

// TestStartNeedsARequest: a stage outside any request opens no trace.
func TestStartNeedsARequest(t *testing.T) {
	op := NewStage(telemetry.New(), "op")
	c := op.Start(context.Background())
	if c.Span() != nil {
		t.Fatal("a stage without a parent span started a trace")
	}
	c.End()
	_, c = op.Root(context.Background())
	if c.Span() == nil {
		t.Fatal("Root opened no span")
	}
	c.End()
}

// TestExemplarOnlyForKeptTraces: a run's total names its trace as exemplar
// only when the recorder will keep that trace — sampled, or failed.
func TestExemplarOnlyForKeptTraces(t *testing.T) {
	for _, tc := range []struct {
		name     string
		rate     float64
		fail     bool
		exemplar bool
	}{
		{"sampled", 1, false, true},
		{"unsampled", -1, false, false},
		{"unsampled, failed", -1, true, true},
	} {
		op := NewStage(telemetry.New(), "op")
		ctx, root := newTestTracer(Config{SampleRate: tc.rate}).StartSpan(context.Background(), "root")
		c := op.Start(ctx)
		if tc.fail {
			c.Span().SetError(errors.New("boom"))
		}
		c.End()
		root.End()
		h := op.hist.Point("")
		if got := h.Exemplar != nil && h.Exemplar.TraceID == root.TraceID(); got != tc.exemplar {
			t.Errorf("%s: exemplar %+v, want one: %v", tc.name, h.Exemplar, tc.exemplar)
		}
	}
}

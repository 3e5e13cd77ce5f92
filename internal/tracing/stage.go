package tracing

import (
	"context"
	"time"

	"diagnet/internal/telemetry"
)

// Stage is one timed boundary of the request path, declared once under one
// name: the name of its span and the stem of its latency histogram,
// <name>.latency_ms, in the registry it was declared in. A Clock times it.
type Stage struct {
	name string
	hist *telemetry.Histogram
}

// NewStage declares stage name, its histogram in reg.
func NewStage(reg *telemetry.Registry, name string) *Stage {
	return &Stage{name: name, hist: reg.Histogram(LatencyName(name), nil)}
}

// LatencyName is the histogram a stage of this name records into.
func LatencyName(stage string) string { return stage + ".latency_ms" }

// Name returns the stage's name.
func (s *Stage) Name() string { return s.name }

// The stages of a diagnosis below the HTTP front, outermost first: the one
// table of the names a replica times the request path under. Each name is
// a rung of the benchmark's ladder (bench/ladder.go), so the layers the
// benchmark attributes time to are histograms every replica exports, and
// the router federates, under the same names.
//
//   - serving.submit: one submission, admission to answer (queue wait,
//     batch and pass included);
//   - core.session_diagnose: one Session.DiagnoseRows call, a micro-batch;
//     what its three children leave is Eq. 1 attention, Algorithm 1
//     weighting and the ensemble average;
//   - probe.normalize, nn.input_gradient, forest.scores: one trunk pass's
//     normalization, forward and input-gradient pass through trunk and
//     heads, and auxiliary forest scores of every row.
var (
	SubmitStage        = NewStage(telemetry.Default(), "serving.submit")
	SessionStage       = NewStage(telemetry.Default(), "core.session_diagnose")
	NormalizeStage     = NewStage(telemetry.Default(), "probe.normalize")
	InputGradientStage = NewStage(telemetry.Default(), "nn.input_gradient")
	ForestStage        = NewStage(telemetry.Default(), "forest.scores")

	Stages = []*Stage{SubmitStage, SessionStage, NormalizeStage, InputGradientStage, ForestStage}
)

// Clock times one run of a stage and the consecutive sub-stages inside it:
// Mark records the lap since the previous mark (or the start) into the
// sub-stage's histogram and, when the run's trace is sampled, as a child
// span of the run's span; End records the total into the stage's own
// histogram, the trace ID as its exemplar, and ends the span. A Clock is a
// value owned by one goroutine. With telemetry off and no sampled span its
// marks read no clock, and unsampled marks allocate nothing.
type Clock struct {
	stage       *Stage
	span        *Span
	timed       bool // telemetry on: laps feed histograms
	start, last time.Time
}

// Start opens a run of the stage inside the request ctx carries: a child
// span of ctx's span, or no span when ctx has none — a stage is part of a
// request, not the start of one. A caller whose callees should nest under
// the run passes them ContextWithSpan(ctx, clock.Span()).
func (s *Stage) Start(ctx context.Context) Clock {
	var span *Span
	if parent := FromContext(ctx); parent != nil && parent.buf.tracer.Enabled() {
		span = parent.child(s.name, time.Now())
	}
	return s.clock(span)
}

// Root opens a run of the stage as the span of an incoming request: a
// child of ctx's span, the continuation of a remote trace ctx carries, or
// a fresh trace (see StartSpan).
func (s *Stage) Root(ctx context.Context) (context.Context, Clock) {
	ctx, span := StartSpan(ctx, s.name)
	return ctx, s.clock(span)
}

func (s *Stage) clock(span *Span) Clock {
	c := Clock{stage: s, span: span, timed: telemetry.On()}
	switch {
	case span != nil && (c.timed || span.sampled()):
		c.start = span.start
	case c.timed:
		c.start = time.Now()
	}
	c.last = c.start
	return c
}

// Span returns the run's span (nil when it has none).
func (c *Clock) Span() *Span { return c.span }

// Mark records the lap since the previous mark as sub-stage st.
func (c *Clock) Mark(st *Stage) {
	if c.start.IsZero() {
		return
	}
	now := time.Now()
	lap := telemetry.Millis(now.Sub(c.last))
	if c.timed {
		st.hist.Observe(lap)
	}
	if sp := c.span; sp.sampled() {
		// A completed child span from the two stamps: no context is
		// threaded through the stage's code.
		sp.mark(st.name, c.last, lap)
	}
	c.last = now
}

// End records the run's total and ends its span. The total's exemplar is
// the run's trace ID when the recorder will keep that trace — it was
// sampled, this run failed, or it alone is slower than the slow threshold
// — so an exemplar does not name a trace head sampling dropped.
func (c *Clock) End() {
	if c.timed {
		d := time.Since(c.start)
		trace := ""
		if c.span.kept(d) {
			trace = c.span.TraceID()
		}
		c.stage.hist.ObserveExemplar(telemetry.Millis(d), trace)
	}
	c.span.End()
}

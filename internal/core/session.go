package core

import (
	"context"

	"diagnet/internal/mat"
	"diagnet/internal/nn"
	"diagnet/internal/probe"
	"diagnet/internal/telemetry"
	"diagnet/internal/tracing"
)

// Session is one goroutine's inference context over a Model: a view of
// the network (nn.Network.View — its own per-pass layer caches over the
// model's weight matrices, which an inference pass only reads) plus
// reusable scratch buffers. The weights, normalizer, auxiliary forest and
// layouts are read-only and shared with the Model and with every other
// session of it, so a session costs its caches, not a copy of the model.
// A Session itself must not be used concurrently; the serving engine keeps
// one per worker, and Model's own methods take one from a per-model pool.
type Session struct {
	m   *Model
	net *nn.Network
	sc  scratch
}

// NewSession returns a fresh inference session sharing the model's
// weights. The model must not be trained in place afterwards (Specialize
// and Retrain clone before they write).
func (m *Model) NewSession() *Session {
	return &Session{m: m, net: m.Net.View()}
}

// acquire takes a session from the model's pool, building one when the
// pool is empty. Callers return it with m.sessions.Put.
func (m *Model) acquire() *Session {
	if s, ok := m.sessions.Get().(*Session); ok {
		return s
	}
	return m.NewSession()
}

// Model returns the read-only model this session serves.
func (s *Session) Model() *Model { return s.m }

// Network returns the session's inference view of the model's network: its
// Params alias the model's weight matrices.
func (s *Session) Network() *nn.Network { return s.net }

// Diagnose is a one-row DiagnoseBatch, safe to call concurrently with
// other sessions of the same model.
func (s *Session) Diagnose(features []float64, layout probe.Layout) *Diagnosis {
	return s.DiagnoseBatch([][]float64{features}, layout)[0]
}

// DiagnoseBatch diagnoses b samples that share one layout with a single
// fused forward/backward pass over the b×n batch: the network's weight
// matrices are streamed from memory once per micro-batch instead of once
// per sample, which is where the serving engine's batching throughput
// comes from. Results are in input order and each Diagnosis is freshly
// allocated (only intermediates live in the session's scratch).
func (s *Session) DiagnoseBatch(features [][]float64, layout probe.Layout) []*Diagnosis {
	return s.DiagnoseBatchContext(context.Background(), features, layout)
}

// DiagnoseBatchContext is DiagnoseBatch carrying a request context: when
// the context holds an active trace span (the serving engine passes the
// micro-batch span of the group's lead request), the fused pass records a
// "core.diagnose" child span with stage children at the StageClock
// boundaries, and the total-latency histogram captures the trace ID as
// its tail exemplar.
func (s *Session) DiagnoseBatchContext(ctx context.Context, features [][]float64, layout probe.Layout) []*Diagnosis {
	b, n := len(features), layout.NumFeatures()
	if b == 0 {
		return nil
	}
	m := s.m
	for _, f := range features {
		if len(f) != n {
			panic("core: feature vector does not match layout")
		}
	}
	mDiagnoses.Add(int64(b))
	_, span := tracing.StartSpan(ctx, "core.diagnose")
	span.SetAttr("batch.size", b)
	span.SetAttr("features", n)
	stages := span.Stages()
	clock := telemetry.StartStages()
	x := s.normalize(features, layout)
	clock.Mark(mStageNormalize)
	stages.Mark("core.stage.normalize")

	// Steps ①–④ for the whole batch, then step ⑤ — one backpropagation of
	// the per-sample ideal-label losses down to the inputs (§III-E). Rows
	// are independent, so grads.Row(i) is what a one-row pass would give.
	if cap(s.sc.targets) < b {
		s.sc.targets = make([]int, b)
	}
	targets := s.sc.targets[:b]
	for i := range targets {
		targets[i] = -1
	}
	grads, probs := s.net.InputGradientBatch(x, targets)

	// Stage telemetry granularity under batching: normalize and total are
	// marked once per fused pass, while the per-row stages mark every row
	// (the first row's forward_gradient lap absorbs the batch's shared
	// network pass). Stage spans mirror that for the first row only — one
	// set of stage children per fused pass keeps traces readable.
	out := make([]*Diagnosis, b)
	for i := range out {
		rowStages := stages
		if i > 0 {
			rowStages = nil
		}
		out[i] = m.postprocess(grads.Row(i), probs.Row(i), features[i], layout, &s.sc, clock, rowStages)
	}
	clock.DoneExemplar(mDiagnoseTotal, span.TraceID())
	span.End()
	return out
}

// normalize writes the normalized rows into the session's scratch and
// returns them as a b×n batch, valid until the session's next call.
func (s *Session) normalize(features [][]float64, layout probe.Layout) *mat.Matrix {
	b, n := len(features), layout.NumFeatures()
	s.sc.normed = grow(s.sc.normed, b*n)
	x := mat.FromSlice(b, n, s.sc.normed)
	for i, f := range features {
		s.m.Norm.ApplyInto(f, layout, x.Row(i))
	}
	return x
}

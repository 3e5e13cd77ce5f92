package tracing

import (
	"context"
	"testing"
)

// BenchmarkStartSpan prices one span at the library level: the disabled
// variant is the cost every instrumentation site pays when tracing is
// off (one atomic load + branch — this must stay in the low nanoseconds
// for the ≤2% end-to-end budget, measured against a full Diagnose by
// BenchmarkDiagnoseTracing in internal/core), the recording variant is
// the per-span cost when a trace is being captured.
func BenchmarkStartSpan(b *testing.B) {
	b.Run("disabled", func(b *testing.B) {
		tr := NewTracer(Config{})
		tr.SetEnabled(false)
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, s := tr.StartSpan(ctx, "op")
			s.End()
		}
	})
	b.Run("recording", func(b *testing.B) {
		tr := NewTracer(Config{Capacity: 16})
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_, s := tr.StartSpan(ctx, "op")
			s.End()
		}
	})
	b.Run("recording-child", func(b *testing.B) {
		// Stored children: a new root every 1,024 keeps each trace within
		// MaxSpans, its own cost spread to about a nanosecond per child.
		const perRoot = 1024
		tr := NewTracer(Config{Capacity: 16, MaxSpans: perRoot})
		var rctx context.Context
		var root *Span
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%perRoot == 0 {
				root.End()
				rctx, root = tr.StartSpan(context.Background(), "root")
			}
			_, s := tr.StartSpan(rctx, "child")
			s.End()
		}
		root.End()
	})
}

package core

import (
	"context"
	"testing"

	"diagnet/internal/probe"
	"diagnet/internal/telemetry"
	"diagnet/internal/tracing"
)

// BenchmarkDiagnoseTelemetry quantifies the instrumentation overhead of
// the per-stage timers on a Table-I-sized model: the "off" variant
// disables stage timing (telemetry.SetEnabled(false) skips every
// time.Now), so the on/off delta is the full telemetry cost. The budget is
// <2% (DESIGN.md §10); in practice six clock reads plus a handful of
// atomic adds against a multi-hundred-microsecond forward+backward pass is
// well under 1%.
func BenchmarkDiagnoseTelemetry(b *testing.B) {
	m := syntheticModel(24, []int{512, 128})
	x := goldenInput()
	full := probe.FullLayout()

	b.Run("on", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Diagnose(x, full)
		}
	})
	b.Run("off", func(b *testing.B) {
		telemetry.SetEnabled(false)
		defer telemetry.SetEnabled(true)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Diagnose(x, full)
		}
	})
}

// TestDiagnoseRecordsStageTimings: a Diagnose call leaves one observation
// in the histogram of core.session_diagnose and of each of its stages, and
// bumps the call counter.
func TestDiagnoseRecordsStageTimings(t *testing.T) {
	m := syntheticModel(6, []int{24, 12})
	before := telemetry.Default().Export()
	m.Diagnose(goldenInput(), probe.FullLayout())
	after := telemetry.Default().Export()

	calls := func(e *telemetry.Export) int64 { v, _ := e.Counter("core.diagnose.calls"); return v }
	if calls(&after) != calls(&before)+1 {
		t.Fatal("diagnose call not counted")
	}
	observed := func(e *telemetry.Export, name string) int64 {
		h, ok := e.Histogram(name)
		if !ok {
			return 0
		}
		return h.Count()
	}
	for _, st := range coreStages {
		name := tracing.LatencyName(st.Name())
		if observed(&after, name) != observed(&before, name)+1 {
			t.Errorf("%s not observed (count %d → %d)", name,
				observed(&before, name), observed(&after, name))
		}
	}
}

// coreStages are the stages a DiagnoseRows call times: its own and its
// pass's three.
var coreStages = []*tracing.Stage{tracing.SessionStage, tracing.NormalizeStage, tracing.InputGradientStage, tracing.ForestStage}

// TestOneRowPassAllocations: a one-row pass outside any request allocates
// its Diagnosis and result slice and nothing else — the clock and the
// stage marks cost nothing — and inside a request whose trace head
// sampling dropped it adds only its own core.session_diagnose span.
func TestOneRowPassAllocations(t *testing.T) {
	m := syntheticModel(6, []int{24, 12})
	s := m.NewSession()
	x, full := goldenInput(), probe.FullLayout()
	rows := []Row{{Service: m.ServiceID, Layout: full, Features: x}}
	pass := func(ctx context.Context) float64 {
		return testing.AllocsPerRun(50, func() { s.DiagnoseRows(ctx, rows) })
	}
	bare := pass(context.Background())
	ctx, root := tracing.NewTracer(tracing.Config{SampleRate: -1}).StartSpan(context.Background(), "request")
	defer root.End()
	unsampled := pass(ctx)
	t.Logf("one-row pass: %v allocations outside a request, %v in an unsampled one", bare, unsampled)
	if bare > 3 || unsampled > 6 {
		t.Errorf("want ≤ 3 outside a request and ≤ 6 unsampled")
	}
}

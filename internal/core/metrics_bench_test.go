package core

import (
	"testing"

	"diagnet/internal/probe"
	"diagnet/internal/telemetry"
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

// TestDiagnoseRecordsStageTimings checks the tentpole's acceptance wiring:
// a Diagnose call must leave one observation in every stage histogram and
// bump the call counter.
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
	for _, name := range []string{
		"core.diagnose.stage.normalize_ms",
		"core.diagnose.stage.forward_gradient_ms",
		"core.diagnose.stage.weighting_ms",
		"core.diagnose.stage.ensemble_ms",
		"core.diagnose.total_ms",
	} {
		if observed(&after, name) != observed(&before, name)+1 {
			t.Errorf("%s not observed (count %d → %d)", name,
				observed(&before, name), observed(&after, name))
		}
	}
}

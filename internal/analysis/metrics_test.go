package analysis

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"diagnet/internal/telemetry"
)

// fetchExport GETs /v1/metrics and decodes it.
func fetchExport(t *testing.T, baseURL string) telemetry.Export {
	t.Helper()
	resp, err := http.Get(baseURL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("metrics content type %q", ct)
	}
	var ex telemetry.Export
	if err := json.NewDecoder(resp.Body).Decode(&ex); err != nil {
		t.Fatal(err)
	}
	return ex
}

// counter and observations read one metric of an export, 0 when absent.
func counter(e *telemetry.Export, name string) int64 {
	v, _ := e.Counter(name)
	return v
}

func observations(e *telemetry.Export, name string) int64 {
	h, ok := e.Histogram(name)
	if !ok {
		return 0
	}
	return h.Count()
}

// TestMetricsEndpoint is the acceptance check for the telemetry tentpole:
// after serving traffic, GET /v1/metrics must report per-route latency
// distributions and the per-stage Diagnose timings recorded by
// internal/core. The registry is process-wide and shared across tests, so
// everything is asserted as a delta against a baseline export.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newService(t)
	before := fetchExport(t, ts.URL)

	req := sampleRequest(t)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	for i := 0; i < n; i++ {
		resp, err := http.Post(ts.URL+"/v1/diagnose", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("diagnose status %d", resp.StatusCode)
		}
	}
	// One failing request must move the error counter.
	resp, err := http.Post(ts.URL+"/v1/diagnose", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// And one batch request must feed the batch-size histogram.
	batch, err := json.Marshal(map[string]any{"requests": []any{req, req}})
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/v1/diagnose-batch", "application/json", bytes.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	after := fetchExport(t, ts.URL)

	if d := counter(&after, "http.diagnose.requests") - counter(&before, "http.diagnose.requests"); d != n+1 {
		t.Fatalf("diagnose request delta %d, want %d", d, n+1)
	}
	if d := counter(&after, "http.diagnose.errors") - counter(&before, "http.diagnose.errors"); d != 1 {
		t.Fatalf("diagnose error delta %d, want 1", d)
	}

	// Per-route latency percentiles.
	if d := observations(&after, "http.diagnose.latency_ms") - observations(&before, "http.diagnose.latency_ms"); d != n+1 {
		t.Fatalf("latency observations +%d, want +%d", d, n+1)
	}
	lat, _ := after.Histogram("http.diagnose.latency_ms")
	if p50, p90, p99 := lat.Quantile(0.5), lat.Quantile(0.9), lat.Quantile(0.99); !(p50 > 0 && p50 <= p90 && p90 <= p99) {
		t.Fatalf("latency percentiles not ordered: p50=%v p90=%v p99=%v", p50, p90, p99)
	}

	// Per-stage Diagnose timings from internal/core. Requests now run
	// through the serving engine's fused batched passes: normalize and
	// total are marked once per micro-batch (at least one pass must have
	// happened), while the per-row stages still mark every sample — the
	// batch endpoint contributes 2 more samples on top of the n singles.
	perPass := []string{
		"core.diagnose.stage.normalize_ms",
		"core.diagnose.total_ms",
	}
	for _, name := range perPass {
		d := observations(&after, name) - observations(&before, name)
		if d < 1 {
			t.Fatalf("stage %s observed %d times, want >= 1", name, d)
		}
	}
	perSample := []string{
		"core.diagnose.stage.forward_gradient_ms",
		"core.diagnose.stage.weighting_ms",
		"core.diagnose.stage.ensemble_ms",
	}
	for _, name := range perSample {
		d := observations(&after, name) - observations(&before, name)
		if d < n+2 {
			t.Fatalf("stage %s observed %d times, want >= %d", name, d, n+2)
		}
	}
	if d := counter(&after, "core.diagnose.calls") - counter(&before, "core.diagnose.calls"); d < n+2 {
		t.Fatalf("core.diagnose.calls delta %d, want >= %d", d, n+2)
	}

	// Batch sizes are recorded.
	if d := observations(&after, "http.diagnose_batch.size") - observations(&before, "http.diagnose_batch.size"); d != 1 {
		t.Fatalf("batch size delta %d, want 1", d)
	}
	// The in-flight gauge exists; while /v1/metrics itself is being served
	// it reads at least 1 (the metrics request is instrumented too).
	if got, ok := after.Gauge("http.inflight"); !ok || got < 1 {
		t.Fatalf("http.inflight gauge = %v, present=%v", got, ok)
	}
}

func TestMetricsEndpointMethod(t *testing.T) {
	_, ts := newService(t)
	resp, err := http.Post(ts.URL+"/v1/metrics", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /v1/metrics status %d", resp.StatusCode)
	}
}

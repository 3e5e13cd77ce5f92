package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"diagnet/internal/telemetry"
)

// TestMergeExact pins federation arithmetic: fleet totals are the exact
// sums of per-replica values.
func TestMergeExact(t *testing.T) {
	mkReplica := func(reqs, errs int64, latencies []float64, inflight float64) telemetry.Export {
		reg := telemetry.New()
		reg.Counter("http.diagnose.requests").Add(reqs)
		reg.Counter("http.diagnose.errors").Add(errs)
		reg.Gauge("http.inflight").Set(inflight)
		h := reg.Histogram("http.diagnose.latency_ms", []float64{1, 10, 100})
		for _, v := range latencies {
			h.Observe(v)
		}
		return reg.Export()
	}
	a := mkReplica(100, 5, []float64{0.5, 5, 50}, 2)
	b := mkReplica(200, 1, []float64{0.7, 500}, 3)
	c := mkReplica(50, 0, []float64{5, 5, 5}, 1)

	fleet, warnings := mergeExports([]telemetry.Export{a, b, c})
	if len(warnings) != 0 {
		t.Fatalf("unexpected warnings: %v", warnings)
	}
	if v, _ := fleet.Counter("http.diagnose.requests"); v != 350 {
		t.Errorf("requests: got %d, want 350", v)
	}
	if v, _ := fleet.Counter("http.diagnose.errors"); v != 6 {
		t.Errorf("errors: got %d, want 6", v)
	}
	// inflight matches the occupancy heuristic, so it sums.
	if v, _ := fleet.Gauge("http.inflight"); v != 6 {
		t.Errorf("inflight: got %v, want 6", v)
	}
	h, ok := fleet.Histogram("http.diagnose.latency_ms")
	if !ok {
		t.Fatalf("merged histogram missing")
	}
	if h.Count() != 8 {
		t.Errorf("count: got %d, want 8", h.Count())
	}
	if want := 0.5 + 5 + 50 + 0.7 + 500 + 15; h.Sum != want {
		t.Errorf("sum: got %v, want %v", h.Sum, want)
	}
	wantCum := []int64{2, 6, 7, 8} // ≤1: {0.5,0.7}; ≤10: +{5,5,5,5}; ≤100: +{50}; +Inf: +{500}
	for i, c := range h.Cumulative {
		if c != wantCum[i] {
			t.Errorf("cumulative[%d]: got %d, want %d", i, c, wantCum[i])
		}
	}
}

func TestMergeGaugeAvgAndBoundsMismatch(t *testing.T) {
	r1 := telemetry.New()
	r1.Gauge("drift.score").Set(0.2)
	r1.Histogram("h", []float64{1, 2}).Observe(1)
	r2 := telemetry.New()
	r2.Gauge("drift.score").Set(0.4)
	r2.Histogram("h", []float64{1, 3}).Observe(1)

	fleet, warnings := mergeExports([]telemetry.Export{r1.Export(), r2.Export()})
	if v, _ := fleet.Gauge("drift.score"); math.Abs(v-0.3) > 1e-12 {
		t.Errorf("avg gauge: got %v, want 0.3", v)
	}
	if len(warnings) != 1 || !strings.Contains(warnings[0], "mismatched bounds") {
		t.Errorf("expected a bounds-mismatch warning, got %v", warnings)
	}
	h, _ := fleet.Histogram("h")
	if h.Count() != 1 {
		t.Errorf("mismatched replica leaked into merge: count %d", h.Count())
	}
}

// TestSLOBurnAndTransitions drives the engine through a healthy phase, an
// error burst, and recovery, asserting the fast rule fires and clears
// with transition events.
func TestSLOBurnAndTransitions(t *testing.T) {
	var events []AlertEvent
	rules := []BurnRule{{Name: "fast", Short: 10 * time.Second, Long: 40 * time.Second, Factor: 10, Severity: "page"}}
	eng := NewSLOEngine(SLOConfig{
		Objectives: []Objective{{
			Name: "avail", Goal: 0.99,
			Requests: "reqs", Errors: "errs",
		}},
		Rules:        rules,
		Registry:     telemetry.New(),
		OnTransition: func(ev AlertEvent) { events = append(events, ev) },
	})

	mkExport := func(reqs, errs int64) telemetry.Export {
		reg := telemetry.New()
		reg.Counter("reqs").Add(reqs)
		reg.Counter("errs").Add(errs)
		return reg.Export()
	}

	t0 := time.Unix(1_700_000_000, 0)
	// Healthy traffic: 100 req/s, no errors, for 60s.
	reqs, errs := int64(0), int64(0)
	now := t0
	for i := 0; i < 60; i++ {
		reqs += 100
		ex := mkExport(reqs, errs)
		eng.Observe(now, &ex)
		now = now.Add(time.Second)
	}
	if len(events) != 0 {
		t.Fatalf("alert fired on healthy traffic: %+v", events)
	}

	// Burst: 50%% errors. Burn = 0.5/0.01 = 50 ≥ 10 on the short window
	// quickly; the long window needs enough bad deltas to cross too.
	for i := 0; i < 30; i++ {
		reqs += 100
		errs += 50
		ex := mkExport(reqs, errs)
		eng.Observe(now, &ex)
		now = now.Add(time.Second)
	}
	if len(events) == 0 || !events[0].Firing {
		t.Fatalf("fast rule did not fire during burst: %+v", events)
	}
	if events[0].Severity != "page" || events[0].Objective != "avail" {
		t.Errorf("bad event: %+v", events[0])
	}

	// Recovery: errors stop; the short window drains and the alert clears.
	for i := 0; i < 30; i++ {
		reqs += 100
		ex := mkExport(reqs, errs)
		eng.Observe(now, &ex)
		now = now.Add(time.Second)
	}
	last := events[len(events)-1]
	if last.Firing {
		t.Fatalf("alert did not clear after recovery: %+v", events)
	}
	if len(events) != 2 {
		t.Errorf("expected exactly fire+clear, got %+v", events)
	}

	st := eng.Status(now)
	if len(st) != 1 || len(st[0].Alerts) != 1 {
		t.Fatalf("status shape: %+v", st)
	}
	if st[0].Alerts[0].Firing {
		t.Errorf("status still firing: %+v", st[0].Alerts[0])
	}
	if st[0].BudgetRemaining >= 1 {
		t.Errorf("budget should be partially spent, got %v", st[0].BudgetRemaining)
	}
}

// TestSLOLatencyObjective pins the histogram-threshold split.
func TestSLOLatencyObjective(t *testing.T) {
	o := Objective{Name: "lat", Goal: 0.9, Histogram: "h", ThresholdMs: 10}
	reg := telemetry.New()
	h := reg.Histogram("h", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	ex := reg.Export()
	bad, total, ok := o.counts(&ex)
	if !ok || total != 4 || bad != 2 {
		t.Errorf("counts: bad=%d total=%d ok=%v, want 2/4/true", bad, total, ok)
	}
}

// TestInstrument pins that the wrapper records into the given registry,
// not the process default.
func TestInstrument(t *testing.T) {
	reg := telemetry.New()
	h := Instrument(reg, "http", "diagnose", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("fail") != "" {
			http.Error(w, "boom", http.StatusInternalServerError)
		}
	}))
	srv := httptest.NewServer(h)
	defer srv.Close()
	for i := 0; i < 3; i++ {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(srv.URL + "?fail=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	ex := reg.Export()
	if v, _ := ex.Counter("http.diagnose.requests"); v != 4 {
		t.Errorf("requests: got %d, want 4", v)
	}
	if v, _ := ex.Counter("http.diagnose.errors"); v != 1 {
		t.Errorf("errors: got %d, want 1", v)
	}
	hp, ok := ex.Histogram("http.diagnose.latency_ms")
	if !ok || hp.Count() != 4 {
		t.Errorf("latency histogram: ok=%v count=%d", ok, hp.Count())
	}
	// The in-flight gauge lives under the prefix, in the same registry,
	// and is back to zero once the requests are done.
	if v, ok := ex.Gauge("http.inflight"); !ok || v != 0 {
		t.Errorf("http.inflight = %v (present=%v), want 0", v, ok)
	}
}

// openMetricsAccept asks for the media type a Prometheus scraper asks
// for, in mixed case (media types compare case-insensitively). No path
// negotiates on it.
const openMetricsAccept = "application/OpenMetrics-text; version=1.0.0; charset=utf-8"

// TestMetricsHandlerIgnoresAccept pins "one path, one format" at the
// handler: MetricsHandler serves the registry's Export as JSON whatever
// the Accept header asks for.
func TestMetricsHandlerIgnoresAccept(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("a.b").Add(1)
	mux := http.NewServeMux()
	mux.Handle("GET /v1/metrics", MetricsHandler(reg))
	srv := httptest.NewServer(mux)
	defer srv.Close()
	for _, accept := range []string{"", "*/*", "application/json", openMetricsAccept, "text/plain; version=0.0.4"} {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+"/v1/metrics", nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("Accept %q: content type %q", accept, ct)
		}
		ex, err := DecodeExport(body)
		if err != nil {
			t.Errorf("Accept %q: %v\n%s", accept, err, body)
		}
		if v, _ := ex.Counter("a.b"); v != 1 {
			t.Errorf("Accept %q: a.b = %d, want 1", accept, v)
		}
	}
}

// goldenRegistry holds one of every shape the wire format must carry:
// non-finite and negative gauges, a name that is not a valid identifier,
// exemplars on a latency and a size histogram, and an empty histogram.
func goldenRegistry() *telemetry.Registry {
	reg := telemetry.New()
	reg.Counter("http.diagnose.requests").Add(42)
	reg.Counter("http.diagnose.errors").Add(3)
	reg.Counter("9lives").Inc()
	reg.Gauge("http.inflight").Set(2.5)
	reg.Gauge("nn.train.loss").Set(math.NaN())
	reg.Gauge("nn.train.val_loss").Set(math.Inf(1))
	reg.Gauge("nn.train.grad_norm").Set(math.Inf(-1))
	reg.Gauge("drift.score").Set(-0.125)
	h := reg.Histogram("http.diagnose.latency_ms", []float64{1, 10, 100})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	h.ObserveExemplar(7, "deadbeef")
	reg.Histogram("serving.pass.rows", telemetry.SizeBuckets).ObserveExemplar(5000, "cafe")
	reg.Histogram("empty.hist", []float64{0.25})
	return reg
}

// TestMetricsRoundTrip pins the wire format end to end: goldenRegistry's
// Export goes out through MetricsHandler, comes back through DecodeExport
// and is the same Export — every counter, gauge (NaN and ±Inf included),
// bucket, sum and exemplar, the empty histogram too.
func TestMetricsRoundTrip(t *testing.T) {
	reg := goldenRegistry()
	rec := httptest.NewRecorder()
	MetricsHandler(reg).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	got, err := DecodeExport(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("decode: %v\n%s", err, rec.Body.String())
	}
	want := reg.Export()
	if !reflect.DeepEqual(got.Counters, want.Counters) {
		t.Errorf("counters: got %+v, want %+v", got.Counters, want.Counters)
	}
	if !reflect.DeepEqual(got.Histograms, want.Histograms) {
		t.Errorf("histograms: got %+v, want %+v", got.Histograms, want.Histograms)
	}
	if len(got.Gauges) != len(want.Gauges) {
		t.Fatalf("gauges: got %+v, want %+v", got.Gauges, want.Gauges)
	}
	for i, g := range got.Gauges {
		w := want.Gauges[i]
		if g.Name != w.Name || (g.Value != w.Value && !(math.IsNaN(g.Value) && math.IsNaN(w.Value))) {
			t.Errorf("gauge %d: got %s=%v, want %s=%v", i, g.Name, g.Value, w.Name, w.Value)
		}
	}
	// The shapes the golden registry exists for must actually be there.
	if v, _ := got.Gauge("nn.train.loss"); !math.IsNaN(v) {
		t.Errorf("NaN gauge came back as %v", v)
	}
	if v, _ := got.Gauge("nn.train.val_loss"); !math.IsInf(v, 1) {
		t.Errorf("+Inf gauge came back as %v", v)
	}
	if v, _ := got.Gauge("nn.train.grad_norm"); !math.IsInf(v, -1) {
		t.Errorf("-Inf gauge came back as %v", v)
	}
	if h, _ := got.Histogram("http.diagnose.latency_ms"); h.Exemplar == nil || h.Exemplar.TraceID != "deadbeef" || h.Exemplar.Value != 7 {
		t.Errorf("latency exemplar: got %+v", h.Exemplar)
	}
	if h, ok := got.Histogram("empty.hist"); !ok || h.Count() != 0 || len(h.Cumulative) != 2 || h.Exemplar != nil {
		t.Errorf("empty histogram: got %+v (present=%v)", h, ok)
	}
}

// TestDecodeExport is the replica-payload validation table: what the
// federator accepts into the merge and what it turns away.
func TestDecodeExport(t *testing.T) {
	hist := func(bounds, cumulative string) string {
		return `{"histograms":[{"name":"h","bounds":` + bounds + `,"cumulative":` + cumulative + `,"sum":1}]}`
	}
	cases := []struct {
		name, doc string
		ok        bool
	}{
		{"empty export", `{"counters":[],"gauges":[],"histograms":[]}`, true},
		{"well-formed", `{"counters":[{"name":"a","value":0},{"name":"b","value":7}],"gauges":[{"name":"g","value":-1.5}],` +
			`"histograms":[{"name":"h","bounds":[1,10],"cumulative":[0,2,2],"sum":3.5,"exemplar":{"value":2,"trace_id":"ab"}}]}`, true},
		{"non-finite gauge", `{"gauges":[{"name":"nn.train.loss","value":"NaN"},{"name":"nn.train.val_loss","value":"+Inf"}]}`, true},
		{"trailing newline", "{}\n", true},
		{"descending bounds", hist(`[10,1]`, `[0,1,1]`), false},
		{"repeated bound", hist(`[1,1]`, `[0,1,1]`), false},
		{"short cumulative", hist(`[1,10]`, `[0,1]`), false},
		{"long cumulative", hist(`[1,10]`, `[0,1,1,1]`), false},
		{"missing cumulative", `{"histograms":[{"name":"h","bounds":[1],"sum":0}]}`, false},
		{"decreasing cumulative", hist(`[1,10]`, `[2,1,2]`), false},
		{"negative cumulative", hist(`[1,10]`, `[-1,0,0]`), false},
		{"negative counter", `{"counters":[{"name":"a","value":-1}]}`, false},
		{"fractional counter", `{"counters":[{"name":"a","value":1.5}]}`, false},
		{"gauge spelled wrong", `{"gauges":[{"name":"g","value":"Infinity"}]}`, false},
		{"gauge without a value", `{"gauges":[{"name":"g"}]}`, false},
		{"trailing garbage", `{"counters":[]} x`, false},
		{"second document", `{"counters":[]}{"counters":[]}`, false},
		{"truncated", `{"counters":[{"name":"a","val`, false},
		{"the deleted map-shaped document", `{"counters":{"a":1},"gauges":{},"histograms":{}}`, false},
		{"exposition text", "# HELP a A.\n# TYPE a counter\na_total 1\n# EOF\n", false},
		{"empty body", ``, false},
	}
	for _, tc := range cases {
		ex, err := DecodeExport([]byte(tc.doc))
		if (err == nil) != tc.ok {
			t.Errorf("%s: err = %v, want ok=%v", tc.name, err, tc.ok)
		}
		if err != nil && (len(ex.Counters) != 0 || len(ex.Gauges) != 0 || len(ex.Histograms) != 0) {
			t.Errorf("%s: rejected payload leaked points: %+v", tc.name, ex)
		}
	}
	ex, err := DecodeExport([]byte(cases[2].doc))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := ex.Gauge("nn.train.loss"); !math.IsNaN(v) {
		t.Errorf("NaN gauge decoded as %v", v)
	}
	if v, _ := ex.Gauge("nn.train.val_loss"); !math.IsInf(v, 1) {
		t.Errorf("+Inf gauge decoded as %v", v)
	}
}

// TestFederatorScrapesJSON drives a sweep over three replicas: a healthy
// one, one whose registry holds a NaN gauge (a diverged retrain), and one
// serving a payload that fails validation. The NaN replica stays in the
// fleet, the broken one becomes an error entry, the merge proceeds, and
// every name in the fleet view is a name from the replicas' registries.
func TestFederatorScrapesJSON(t *testing.T) {
	serve := func(h http.Handler) string {
		mux := http.NewServeMux()
		mux.Handle("GET /v1/metrics", h)
		srv := httptest.NewServer(mux)
		t.Cleanup(srv.Close)
		return srv.URL
	}
	healthy, diverged := telemetry.New(), telemetry.New()
	for i, reg := range []*telemetry.Registry{healthy, diverged} {
		reg.Counter(DiagnoseRoute.Requests).Add(int64(10 * (i + 1)))
		reg.Histogram(DiagnoseRoute.Latency, nil).Observe(float64(i + 1))
		reg.Gauge("nn.train.loss").Set(0.25)
	}
	diverged.Gauge("nn.train.loss").Set(math.NaN())
	urls := []string{
		serve(MetricsHandler(healthy)),
		serve(MetricsHandler(diverged)),
		serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, `{"counters":[{"name":"http.diagnose.requests","value":-5}]}`)
		})),
	}
	own := telemetry.New()
	fed := NewFederator(FederatorConfig{Targets: func() []string { return urls }, Registry: own})
	defer fed.Close()
	view := fed.Sweep(context.Background())

	if len(view.Replicas) != 3 || view.Replicas[0].Error != "" || view.Replicas[1].Error != "" {
		t.Fatalf("healthy and diverged replicas must both be in the fleet: %+v", view.Replicas)
	}
	if e := view.Replicas[2].Error; !strings.Contains(e, "negative value") {
		t.Errorf("broken replica's entry: %q, want the validation error", e)
	}
	if v := own.Counter("obs.federate.errors").Value(); v != 1 {
		t.Errorf("obs.federate.errors = %d, want 1", v)
	}
	if v, ok := view.Fleet.Counter("http.diagnose.requests"); !ok || v != 30 {
		t.Errorf("fleet requests = %d (present=%v), want 30: the broken replica must not count", v, ok)
	}
	if h, ok := view.Fleet.Histogram("http.diagnose.latency_ms"); !ok || h.Count() != 2 || h.Sum != 3 {
		t.Errorf("fleet latency = %+v", h)
	}
	if v, ok := view.Replicas[1].Export.Gauge("nn.train.loss"); !ok || !math.IsNaN(v) {
		t.Errorf("diverged replica's loss gauge = %v (present=%v), want NaN", v, ok)
	}
	// The fleet view itself — which embeds the NaN — still renders.
	rec := httptest.NewRecorder()
	fed.ServeView(rec, httptest.NewRequest(http.MethodGet, "/v1/fleet/metrics", nil))
	var decoded FleetView
	if err := json.Unmarshal(rec.Body.Bytes(), &decoded); err != nil || len(decoded.Replicas) != 3 {
		t.Errorf("fleet view with a NaN gauge does not decode: %v\n%s", err, rec.Body.String())
	}
}

// TestWriteJSONLogsEncodeError pins that a value encoding/json refuses is
// logged and answered 500, not silently served as an empty 200.
func TestWriteJSONLogsEncodeError(t *testing.T) {
	var logged bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
	defer slog.SetDefault(prev)
	rec := httptest.NewRecorder()
	WriteJSON(rec, map[string]float64{"x": math.NaN()})
	if !strings.Contains(logged.String(), "JSON response not written") {
		t.Errorf("encode error not logged: %q", logged.String())
	}
	if rec.Code != http.StatusInternalServerError {
		t.Errorf("status %d for a value that does not encode, want 500 (body %q)", rec.Code, rec.Body)
	}
}

// TestWireBuffers pins the pool's size classes and ReadBody's three reads:
// a declared length presizes one buffer, an undeclared one grows through
// the classes, and a failed read returns nothing.
func TestWireBuffers(t *testing.T) {
	for _, n := range []int{0, 1, 512, 513, 3000, 1 << 20} {
		b := Buffer(n)
		if len(b) != 0 || cap(b) < max(n, 512) || cap(b)&(cap(b)-1) != 0 {
			t.Errorf("Buffer(%d): len %d cap %d, want an empty power-of-two buffer of at least max(n, 512)", n, len(b), cap(b))
		}
		Recycle(b)
	}
	if b := Buffer(1<<20 + 1); cap(b) != 1<<20+1 {
		t.Errorf("Buffer past the largest class: cap %d, want exactly %d", cap(b), 1<<20+1)
	}

	body := bytes.Repeat([]byte("0123456789"), 700)
	for _, declared := range []int64{int64(len(body)), -1, 0} {
		got, err := ReadBody(bytes.NewReader(body), declared, 1<<20)
		if err != nil || !bytes.Equal(got, body) {
			t.Errorf("declared %d: read %d bytes, err %v; want the %d-byte body", declared, len(got), err, len(body))
		}
		Recycle(got)
	}
	if got, err := ReadBody(bytes.NewReader(body[:100]), int64(len(body)), 1<<20); err != io.ErrUnexpectedEOF || got != nil {
		t.Errorf("short body: %d bytes, err %v; want nil and io.ErrUnexpectedEOF", len(got), err)
	}
	if got, err := ReadBody(iotest.ErrReader(errors.New("boom")), -1, 1<<20); err == nil || got != nil {
		t.Errorf("failing reader: %d bytes, err %v; want nil and the error", len(got), err)
	}
}

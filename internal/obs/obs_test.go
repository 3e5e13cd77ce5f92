package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"diagnet/internal/telemetry"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"http.diagnose.latency_ms": "http_diagnose_latency_ms",
		"slo.alerts.fired":         "slo_alerts_fired",
		"9lives":                   "_9lives",
		"already_fine:ok":          "already_fine:ok",
		"":                         "_",
	}
	for in, want := range cases {
		if got := PromName(in); got != want {
			t.Errorf("PromName(%q) = %q, want %q", in, got, want)
		}
		if got := PromName(PromName(in)); got != want {
			t.Errorf("PromName not idempotent on %q: %q", in, got)
		}
	}
}

// TestExpositionRoundTrip pins the wire format end to end: a populated
// registry exposes, the strict parser decodes, and every value survives
// exactly.
func TestExpositionRoundTrip(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("http.diagnose.requests").Add(42)
	reg.Counter("http.diagnose.errors").Add(3)
	reg.Gauge("http.inflight").Set(2.5)
	h := reg.Histogram("http.diagnose.latency_ms", []float64{1, 10, 100})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)
	h.ObserveExemplar(7, "deadbeef")

	var buf bytes.Buffer
	ex := reg.Export()
	if err := writeExposition(&buf, &ex); err != nil {
		t.Fatalf("write: %v", err)
	}
	text := buf.String()
	if !strings.HasSuffix(text, "# EOF\n") {
		t.Fatalf("missing terminal # EOF:\n%s", text)
	}
	if !strings.Contains(text, `# {trace_id="deadbeef"} 7`) {
		t.Errorf("exemplar annotation missing:\n%s", text)
	}

	got, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	if v, ok := got.Counter("http_diagnose_requests"); !ok || v != 42 {
		t.Errorf("requests counter: got %d, %v", v, ok)
	}
	if v, ok := got.Counter("http_diagnose_errors"); !ok || v != 3 {
		t.Errorf("errors counter: got %d, %v", v, ok)
	}
	if v, ok := got.Gauge("http_inflight"); !ok || v != 2.5 {
		t.Errorf("inflight gauge: got %v, %v", v, ok)
	}
	hp, ok := got.Histogram("http_diagnose_latency_ms")
	if !ok {
		t.Fatalf("latency histogram missing")
	}
	if hp.Count() != 5 {
		t.Errorf("count: got %d, want 5", hp.Count())
	}
	if want := 0.5 + 5 + 50 + 500 + 7; hp.Sum != want {
		t.Errorf("sum: got %v, want %v", hp.Sum, want)
	}
	wantCum := []int64{1, 3, 4, 5}
	for i, c := range hp.Cumulative {
		if c != wantCum[i] {
			t.Errorf("cumulative[%d]: got %d, want %d", i, c, wantCum[i])
		}
	}
	if hp.Exemplar == nil || hp.Exemplar.TraceID != "deadbeef" || hp.Exemplar.Value != 7 {
		t.Errorf("exemplar: got %+v", hp.Exemplar)
	}

	// Re-exposing the parsed export must be byte-identical modulo the
	// already-prom names: the writer is stable on its own output.
	var buf2, buf3 bytes.Buffer
	if err := writeExposition(&buf2, &got); err != nil {
		t.Fatalf("re-write: %v", err)
	}
	got2, err := ParseExposition(buf2.Bytes())
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if err := writeExposition(&buf3, &got2); err != nil {
		t.Fatalf("re-re-write: %v", err)
	}
	if !bytes.Equal(buf2.Bytes(), buf3.Bytes()) {
		t.Errorf("exposition not stable across parse/write cycles:\n%s\nvs\n%s", buf2.String(), buf3.String())
	}
}

// TestParserLint pins the strict rules: each malformed document must be
// rejected.
func TestParserLint(t *testing.T) {
	cases := map[string]string{
		"missing EOF":                 "# HELP a A.\n# TYPE a counter\na_total 1\n",
		"content after EOF":           "# HELP a A.\n# TYPE a counter\na_total 1\n# EOF\nx_total 2\n",
		"bad family name":             "# HELP 1bad A.\n# TYPE 1bad counter\n1bad_total 1\n# EOF\n",
		"type before help":            "# TYPE a counter\na_total 1\n# EOF\n",
		"sample before type":          "# HELP a A.\na_total 1\n# TYPE a counter\n# EOF\n",
		"unknown type":                "# HELP a A.\n# TYPE a summary\na 1\n# EOF\n",
		"duplicate family":            "# HELP a A.\n# TYPE a counter\na_total 1\n# HELP a A.\n# TYPE a counter\na_total 2\n# EOF\n",
		"counter without _total":      "# HELP a A.\n# TYPE a counter\na 1\n# EOF\n",
		"counter negative":            "# HELP a A.\n# TYPE a counter\na_total -1\n# EOF\n",
		"counter float":               "# HELP a A.\n# TYPE a counter\na_total 1.5\n# EOF\n",
		"family without samples":      "# HELP a A.\n# TYPE a counter\n# HELP b B.\n# TYPE b counter\nb_total 1\n# EOF\n",
		"histogram without +Inf":      "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n# EOF\n",
		"histogram non-monotone":      "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n# EOF\n",
		"histogram descending bounds": "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 2\n# EOF\n",
		"histogram count mismatch":    "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n# EOF\n",
		"histogram missing sum":       "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_count 2\n# EOF\n",
		"histogram bucket after inf":  "# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 2\n# EOF\n",
		"gauge with exemplar":         "# HELP g G.\n# TYPE g gauge\ng 1 # {trace_id=\"ab\"} 1\n# EOF\n",
		"blank interior line":         "# HELP a A.\n\n# TYPE a counter\na_total 1\n# EOF\n",
	}
	for name, doc := range cases {
		if _, err := ParseExposition([]byte(doc)); err == nil {
			t.Errorf("%s: parser accepted malformed document:\n%s", name, doc)
		}
	}
}

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

// TestExpositionHandlerAndNegotiation pins "one path, one format" at the
// handlers: ExpositionHandler serves lint-clean text and MetricsHandler a
// JSON Export of the same registry, whatever the Accept header asks for.
func TestExpositionHandlerAndNegotiation(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("a.b").Add(1)
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", ExpositionHandler(reg))
	mux.Handle("GET /v1/metrics", MetricsHandler(reg))
	srv := httptest.NewServer(mux)
	defer srv.Close()
	get := func(path, accept string) (string, []byte) {
		req, _ := http.NewRequest(http.MethodGet, srv.URL+path, nil)
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.Header.Get("Content-Type"), body
	}
	for _, accept := range []string{"", "*/*", "application/json", ContentType, "text/plain; version=0.0.4"} {
		ct, body := get("/metrics", accept)
		if ct != ContentType {
			t.Errorf("/metrics, Accept %q: content type %q", accept, ct)
		}
		text, err := ParseExposition(body)
		if err != nil {
			t.Errorf("/metrics, Accept %q: self-scrape fails lint: %v\n%s", accept, err, body)
		}
		if v, _ := text.Counter("a_b"); v != 1 {
			t.Errorf("/metrics, Accept %q: a_b = %d, want 1", accept, v)
		}
		ct, body = get("/v1/metrics", accept)
		if ct != "application/json" {
			t.Errorf("/v1/metrics, Accept %q: content type %q", accept, ct)
		}
		ex, err := DecodeExport(body)
		if err != nil {
			t.Errorf("/v1/metrics, Accept %q: %v\n%s", accept, err, body)
		}
		if v, _ := ex.Counter("a.b"); v != 1 {
			t.Errorf("/v1/metrics, Accept %q: a.b = %d, want 1", accept, v)
		}
	}
}

// goldenRegistry is the fixed state behind testdata/exposition.golden.
func goldenRegistry() *telemetry.Registry {
	reg := telemetry.New()
	reg.Counter("http.diagnose.requests").Add(42)
	reg.Counter("http.diagnose.errors").Add(3)
	reg.Counter("9lives").Inc()
	reg.Gauge("http.inflight").Set(2.5)
	reg.Gauge("nn.train.loss").Set(math.NaN())
	reg.Gauge("nn.train.val_loss").Set(math.Inf(1))
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

// TestExpositionGolden pins GET /metrics byte for byte: the golden file is
// what the commit before the Snapshot model was deleted wrote for this
// registry — sanitized names, non-finite gauges, exemplar lines, an empty
// histogram and all. A scraper must not see this refactor.
func TestExpositionGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "exposition.golden"))
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	ExpositionHandler(goldenRegistry()).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	// The handler counts its own scrape into the registry it renders; the
	// golden registry had no such family.
	got := strings.Replace(rec.Body.String(),
		"# HELP obs_scrapes DiagNet counter obs.scrapes.\n# TYPE obs_scrapes counter\nobs_scrapes_total 1\n", "", 1)
	if got != string(want) {
		t.Errorf("exposition drifted from the golden file:\n%s\nwant:\n%s", got, want)
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
		{"openmetrics text", "# HELP a A.\n# TYPE a counter\na_total 1\n# EOF\n", false},
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
// reported, not silently served as an empty 200.
func TestWriteJSONLogsEncodeError(t *testing.T) {
	var logged bytes.Buffer
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(&logged, nil)))
	defer slog.SetDefault(prev)
	WriteJSON(httptest.NewRecorder(), map[string]float64{"x": math.NaN()})
	if !strings.Contains(logged.String(), "JSON response not written") {
		t.Errorf("encode error not logged: %q", logged.String())
	}
}

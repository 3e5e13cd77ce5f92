package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"diagnet/internal/analysis"
	"diagnet/internal/core"
	"diagnet/internal/leakcheck"
)

// TestMain fails the package when a test leaves a goroutine behind: after
// teardown the router, engines, listeners and idle connections must all be
// gone.
func TestMain(m *testing.M) { leakcheck.VerifyTestMain(m) }

// smokeOptions shrinks the benchmark to a few seconds: a narrow model, one
// epoch, one-second windows.
func smokeOptions(t *testing.T) options {
	o := defaultOptions()
	cfg := core.DefaultConfig()
	cfg.Filters, cfg.Hidden = 8, []int{48, 24}
	cfg.Epochs, cfg.SpecializeEpochs, cfg.Patience = 1, 1, 100
	o.fixture = fixtureConfig{Nominal: 300, Fault: 700, Core: cfg}
	o.seconds, o.reps, o.boots, o.warm = 1, 2, 2, 100*time.Millisecond
	o.outDir, o.cacheDir = t.TempDir(), ""
	return o
}

// The second untraced run of a build takes the bundle from the cache, a
// traced run trains anyway, and all give the same reference answers.
func TestFixtureCache(t *testing.T) {
	o := smokeOptions(t)
	dir := t.TempDir()
	var wants [][]answer
	for i, c := range []struct{ fresh, trains bool }{{false, true}, {false, false}, {true, true}} {
		fx, err := buildFixture(o.fixture, dir, c.fresh, true, false)
		if err != nil {
			t.Fatal(err)
		}
		if trained := fx.trainGeneralS > 0; trained != c.trains {
			t.Errorf("build %d: trained = %v, want %v", i, trained, c.trains)
		}
		var w []answer
		for i := range fx.mixed {
			w = append(w, fx.mixed[i].want)
		}
		wants = append(wants, w)
	}
	if !reflect.DeepEqual(wants[0], wants[1]) || !reflect.DeepEqual(wants[0], wants[2]) {
		t.Error("the cached bundle answers differently from the trained one")
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 1 {
		t.Errorf("cache directory holds %v, want one bundle", files)
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestManifestIsBenchmarkJSON(t *testing.T) {
	committed, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifest()) {
		t.Error("BENCHMARK.json differs from the tables in metrics.go; regenerate it with -manifest")
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(m.Name) || seen[m.Name] {
			t.Errorf("metric name %q is malformed or used twice", m.Name)
		}
		seen[m.Name] = true
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: malformed unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if endToEnd[0].Name != "setup_s" || endToEnd[0].Unit != "s" || endToEnd[0].Better != "lower" {
		t.Error("setup_s must be an end-to-end metric in seconds, lower is better")
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.Name) || seen[w.Name] {
			t.Errorf("workload name %q is malformed or used twice", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
}

// checkLine parses a contract line and checks it carries exactly the
// metrics of defs, each finite.
func checkLine(t *testing.T, line string, defs []metricDef) {
	t.Helper()
	var got struct {
		Correct   *bool `json:"correct"`
		Attempted *int  `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	dec := json.NewDecoder(strings.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("contract line: %v", err)
	}
	if got.Correct == nil || got.Attempted == nil || got.Failed == nil {
		t.Fatalf("contract line lacks a key: %s", line)
	}
	if !*got.Correct || *got.Failed != 0 || *got.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", *got.Correct, *got.Attempted, *got.Failed)
	}
	if len(got.Metrics) != len(defs) {
		t.Errorf("contract line has %d metrics, want %d", len(got.Metrics), len(defs))
	}
	for _, m := range defs {
		v, ok := got.Metrics[m.Name]
		if !ok || v.Value == nil || v.Unit != m.Unit {
			t.Errorf("metric %s missing or with the wrong unit", m.Name)
			continue
		}
		if math.IsNaN(*v.Value) || math.IsInf(*v.Value, 0) {
			t.Errorf("metric %s = %v", m.Name, *v.Value)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	results, err := run(context.Background(), smokeOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(workloads) {
		t.Fatalf("got %d results, want one per workload", len(results))
	}
	for _, res := range results {
		checkLine(t, contractLine(res, false), endToEnd)
		for _, m := range endToEnd {
			// The driver measures worsening as a share of the median.
			if v := m.reported(res.EndToEnd[m.Name]); v <= 0 {
				t.Errorf("%s %s = %v, end-to-end metrics must never be 0", res.Workload, m.Name, v)
			}
		}
		var rows bytes.Buffer
		printRows(&rows, res)
		if n := strings.Count(rows.String(), "\n"); n != len(endToEnd) {
			t.Errorf("%s: %d rows printed, want %d", res.Workload, n, len(endToEnd))
		}
	}
}

func TestSmokeTraced(t *testing.T) {
	o := smokeOptions(t)
	o.trace = true
	results, err := run(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range results {
		checkLine(t, contractLine(res, true), perLayer)
		if res.Workload == wRetrain {
			continue
		}
		// Ladder self times telescope to the top rung, in every trace.
		f, err := os.Open(filepath.Join(o.outDir, "trace_"+res.Workload+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		var tr tracer
		for sc := bufio.NewScanner(f); sc.Scan(); {
			var s span
			if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
				t.Fatal(err)
			}
			tr.spans = append(tr.spans, s)
		}
		f.Close()
		totals := tr.totals()
		if len(totals) < 5 {
			t.Errorf("%s: only %d traces", res.Workload, len(totals))
		}
		for id, trace := range totals {
			for name := range rungParent {
				if _, ok := trace[name]; !ok {
					t.Errorf("%s trace %d: rung %s missing", res.Workload, id, name)
				}
			}
			if sum, top := subtreeSelfNs(trace, "cluster.route"), trace["cluster.route"].ns; sum != top {
				t.Errorf("%s trace %d: self times sum to %d ns, top rung took %d ns", res.Workload, id, sum, top)
			}
		}
	}
}

func TestOracleFlagsCorruptedResponse(t *testing.T) {
	want := answer{
		family: "latency", coarse: []float64{0.1, 0.9}, modelService: 3,
		features: []int{7, 2, 9, 4, 0}, scores: []float64{0.5, 0.2, 0.1, 0.05, 0.01},
	}
	served := func() *analysis.DiagnoseResponse {
		resp := &analysis.DiagnoseResponse{
			Family: "latency", Coarse: []float64{0.1, 0.9}, ModelService: 3, ModelVersion: "boot",
		}
		for i, f := range want.features {
			resp.Causes = append(resp.Causes, analysis.Cause{Feature: f, Score: want.scores[i]})
		}
		return resp
	}
	if !want.matches(served()) {
		t.Fatal("the reference answer itself does not match")
	}
	for name, corrupt := range map[string]func(*analysis.DiagnoseResponse){
		"family":          func(r *analysis.DiagnoseResponse) { r.Family = "loss" },
		"swapped causes":  func(r *analysis.DiagnoseResponse) { r.Causes[0], r.Causes[1] = r.Causes[1], r.Causes[0] },
		"score off 1e-6":  func(r *analysis.DiagnoseResponse) { r.Causes[2].Score += 1e-6 },
		"score NaN":       func(r *analysis.DiagnoseResponse) { r.Causes[2].Score = math.NaN() },
		"coarse off 1e-6": func(r *analysis.DiagnoseResponse) { r.Coarse[1] -= 1e-6 },
		"missing cause":   func(r *analysis.DiagnoseResponse) { r.Causes = r.Causes[:4] },
		"model version":   func(r *analysis.DiagnoseResponse) { r.ModelVersion = "v2" },
		"model service":   func(r *analysis.DiagnoseResponse) { r.ModelService = -1 },
	} {
		resp := served()
		corrupt(resp)
		if want.matches(resp) {
			t.Errorf("corruption %q passed the oracle", name)
		}
	}
	if want.matches(nil) {
		t.Error("a null response passed the oracle")
	}
}

// TestOpenLoopChargesStall is the coordinated-omission check: the handler
// stalls 50 ms once, the only connection is busy meanwhile, and the
// requests that fell due during the stall must be charged the wait even
// though each of them, once sent, was answered at once.
func TestOpenLoopChargesStall(t *testing.T) {
	var first atomic.Bool
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if first.CompareAndSwap(false, true) {
			time.Sleep(50 * time.Millisecond)
		}
		w.Write([]byte("{}"))
	}))
	defer srv.Close()
	hc := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	defer hc.CloseIdleConnections()

	p := &plan{
		url: srv.URL, bodies: [][]byte{[]byte("{}")}, rate: 200,
		check: func(int, []byte) (int, int) { return 1, 0 },
	}
	var cursor atomic.Int64
	samples, _ := generate(context.Background(), hc, p, 1, 500*time.Millisecond, &cursor)
	if len(samples) != 100 {
		t.Fatalf("sent %d requests, the timetable holds 100", len(samples))
	}
	// Requests 1..5 fell due 5..25 ms into the stall: at least 25 ms of
	// wait each. A generator that timed from the actual send would report
	// one slow request.
	charged := 0
	for _, s := range samples {
		if s.failed {
			t.Fatal("a request failed")
		}
		if s.latency >= 25*time.Millisecond {
			charged++
		}
	}
	if charged < 5 {
		t.Errorf("%d requests were charged the stall, want at least 5", charged)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q3 = quartiles([]float64{1, 2}); q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles = %v, %v; want 0.75, 2.25", q1, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, latency, throughput []float64) string {
		e2e := map[string][]float64{}
		for _, m := range endToEnd {
			e2e[m.Name] = []float64{1}
		}
		e2e["latency_p50_ms"], e2e["throughput_per_s"] = latency, throughput
		path := filepath.Join(dir, name)
		if err := writeReport(path, defaultOptions(), []*result{{Workload: wInteractive, Attempted: 1, EndToEnd: e2e}}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	base := write("a.json", steady, []float64{100, 101, 99, 100, 100})
	for _, tc := range []struct {
		name                string
		latency, throughput []float64
		worse               bool
		verdict             string // of the latency row
	}{
		{"same", steady, []float64{100, 100, 100, 100, 100}, false, "ok"},
		{"latency up two fifths", []float64{14, 14.1, 13.9, 14, 14}, []float64{100, 100, 100, 100, 100}, true, "worse"},
		{"throughput down two fifths", steady, []float64{60, 60, 61, 59, 60}, true, "ok"},
		{"noisy", []float64{6, 14, 9, 13, 11}, []float64{100, 100, 100, 100, 100}, false, "unresolved"},
		{"noisy but better in every repetition", []float64{5, 8, 6, 7, 9}, []float64{100, 100, 100, 100, 100}, false, "ok"},
	} {
		var out bytes.Buffer
		worse, err := compareReports(&out, base, write("b.json", tc.latency, tc.throughput))
		if err != nil {
			t.Fatal(err)
		}
		if worse != tc.worse {
			t.Errorf("%s: worse = %v, want %v\n%s", tc.name, worse, tc.worse, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if strings.Contains(line, "latency_p50_ms") && !strings.HasSuffix(line, tc.verdict) {
				t.Errorf("%s: latency row %q, want verdict %s", tc.name, line, tc.verdict)
			}
		}
	}
}

// subtreeSelfNs sums the self times of a rung and everything below it;
// by construction it equals the rung's own duration.
func subtreeSelfNs(trace map[string]rungTotal, name string) int64 {
	sum := selfNs(trace, name)
	for child, parent := range rungParent {
		if parent == name {
			sum += subtreeSelfNs(trace, child)
		}
	}
	return sum
}

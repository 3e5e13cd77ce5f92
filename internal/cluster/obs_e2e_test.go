package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"diagnet/internal/analysis"
	"diagnet/internal/core"
	"diagnet/internal/durable"
	"diagnet/internal/obs"
	"diagnet/internal/telemetry"
)

// obsReplica is a replica with its OWN telemetry registry, so an
// in-process fleet behaves like distinct processes: the federated view
// must sum three distinct registries, not one shared registry counted
// three times.
type obsReplica struct {
	reg  *telemetry.Registry
	srv  *httptest.Server
	fail atomic.Bool // when set, /v1/diagnose answers 500
}

func startObsReplica(t testing.TB, version string) *obsReplica {
	t.Helper()
	rep := &obsReplica{reg: telemetry.New()}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.Handle("GET /v1/metrics", obs.MetricsHandler(rep.reg))
	mux.Handle("/v1/diagnose", obs.Instrument(rep.reg, "http", "diagnose",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if rep.fail.Load() {
				http.Error(w, "injected fault", http.StatusInternalServerError)
				return
			}
			okDiagnose(version)(w, r)
		})))
	rep.srv = httptest.NewServer(mux)
	t.Cleanup(rep.srv.Close)
	return rep
}

func (o *obsReplica) url() string { return o.srv.URL }

// openMetricsAccept asks for the media type a Prometheus scraper asks
// for, in mixed case (media types compare case-insensitively). No path
// negotiates on it.
const openMetricsAccept = "application/OpenMetrics-text; version=1.0.0; charset=utf-8"

// get fetches url with the given Accept header (none when empty) and
// returns the response's content type and body.
func get(t testing.TB, url, accept string) (contentType, body string) {
	t.Helper()
	req, _ := http.NewRequest(http.MethodGet, url, nil)
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	return resp.Header.Get("Content-Type"), readAllString(t, resp)
}

// scrapeExport fetches one /v1/metrics endpoint with the given Accept
// header and decodes it as the federator does, through obs.DecodeExport.
func scrapeExport(t testing.TB, base, accept string) telemetry.Export {
	t.Helper()
	ct, body := get(t, base+"/v1/metrics", accept)
	if !strings.HasPrefix(ct, "application/json") {
		t.Errorf("%s/v1/metrics: content type %q, want JSON", base, ct)
	}
	ex, err := obs.DecodeExport([]byte(body))
	if err != nil {
		t.Fatalf("%s/v1/metrics: not a JSON Export: %v", base, err)
	}
	return ex
}

func readAllString(t testing.TB, resp *http.Response) string {
	t.Helper()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return string(b)
}

// getJSON fetches and decodes a JSON endpoint into v, returning the
// status code.
func getJSON(t testing.TB, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK && v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestFederationExactMerge boots 3 replicas with distinct registries,
// drives a known per-replica load, and asserts the router's federated
// fleet view is the replicas' own registries, summed: every counter and
// histogram family carries the name it has in Registry.Export() — no
// mapping in between — counters equal the per-replica sums, and so do
// histogram sums and every cumulative bucket.
func TestFederationExactMerge(t *testing.T) {
	reps := []*obsReplica{
		startObsReplica(t, "r0"),
		startObsReplica(t, "r1"),
		startObsReplica(t, "r2"),
	}
	urls := []string{reps[0].url(), reps[1].url(), reps[2].url()}
	rt := newTestRouter(t, urls, Config{
		Obs: ObsConfig{FederateInterval: 25 * time.Millisecond},
	})
	gw := httptest.NewServer(rt)
	defer gw.Close()

	// Known, deliberately unequal per-replica load, driven directly at
	// each replica (bypassing the router so the split is exact by
	// construction).
	loads := []int{5, 8, 11}
	body := diagnoseBody(t)
	client := &http.Client{Timeout: 5 * time.Second}
	for i, rep := range reps {
		for j := 0; j < loads[i]; j++ {
			status, _ := postJSON(t, client, rep.url()+"/v1/diagnose", body)
			if status != http.StatusOK {
				t.Fatalf("replica %d request %d: status %d", i, j, status)
			}
		}
	}

	// Independent ground truth, now that the replicas are quiet: read each
	// registry in process and sum, in replica order (the merge's order, so
	// the float sums match to the bit).
	wantCounters := map[string]int64{}
	wantHists := map[string]*telemetry.HistogramPoint{}
	for i, rep := range reps {
		ex := rep.reg.Export()
		if v, ok := ex.Counter("http.diagnose.requests"); !ok || v != int64(loads[i]) {
			t.Fatalf("replica %d: requests=%d ok=%v, want %d", i, v, ok, loads[i])
		}
		for _, c := range ex.Counters {
			wantCounters[c.Name] += c.Value
		}
		for _, h := range ex.Histograms {
			w := wantHists[h.Name]
			if w == nil {
				w = &telemetry.HistogramPoint{Cumulative: make([]int64, len(h.Cumulative))}
				wantHists[h.Name] = w
			}
			w.Sum += h.Sum
			for j, c := range h.Cumulative {
				w.Cumulative[j] += c
			}
		}
	}
	if wantCounters["http.diagnose.requests"] != 24 || wantHists["http.diagnose.latency_ms"].Count() != 24 {
		t.Fatalf("ground truth is off: %v", wantCounters)
	}

	// Wait for a sweep that has seen all 24 requests, then compare.
	var view obs.FleetView
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := getJSON(t, gw.URL+"/v1/fleet/metrics", &view); code == http.StatusOK {
			if h, ok := view.Fleet.Histogram("http.diagnose.latency_ms"); ok && h.Count() == 24 {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("federated view never converged: %+v", view.Fleet.Counters)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if len(view.Replicas) != 3 {
		t.Fatalf("want 3 replicas in breakdown, got %d", len(view.Replicas))
	}
	for _, r := range view.Replicas {
		if r.Error != "" {
			t.Fatalf("replica %s scrape error: %s", r.Name, r.Error)
		}
	}
	if len(view.Fleet.Counters) != len(wantCounters) || len(view.Fleet.Histograms) != len(wantHists) {
		t.Errorf("fleet has %d counter and %d histogram families, the replicas %d and %d",
			len(view.Fleet.Counters), len(view.Fleet.Histograms), len(wantCounters), len(wantHists))
	}
	for _, c := range view.Fleet.Counters {
		if want, ok := wantCounters[c.Name]; !ok {
			t.Errorf("fleet counter %q is not a name any replica's registry uses", c.Name)
		} else if c.Value != want {
			t.Errorf("fleet %s = %d != sum of replicas %d", c.Name, c.Value, want)
		}
	}
	for _, h := range view.Fleet.Histograms {
		want, ok := wantHists[h.Name]
		if !ok {
			t.Errorf("fleet histogram %q is not a name any replica's registry uses", h.Name)
			continue
		}
		if h.Sum != want.Sum {
			t.Errorf("fleet %s sum %v != arithmetic sum %v", h.Name, h.Sum, want.Sum)
		}
		for j, c := range h.Cumulative {
			if c != want.Cumulative[j] {
				t.Errorf("fleet %s bucket[%d]=%d != sum %d", h.Name, j, c, want.Cumulative[j])
			}
		}
	}
}

// sloStatus mirrors the /v1/slo JSON for decoding.
type sloStatus struct {
	Objectives []struct {
		Name   string `json:"name"`
		Alerts []struct {
			Rule      string  `json:"rule"`
			Factor    float64 `json:"factor"`
			BurnShort float64 `json:"burn_short"`
			Firing    bool    `json:"firing"`
		} `json:"alerts"`
	} `json:"objectives"`
}

func (s *sloStatus) firing(rule string) bool {
	for _, o := range s.Objectives {
		for _, a := range o.Alerts {
			if a.Rule == rule && a.Firing {
				return true
			}
		}
	}
	return false
}

// TestSLOBurnAlert drives an injected error burst through the router and
// asserts the fast-burn alert fires and clears after recovery.
func TestSLOBurnAlert(t *testing.T) {
	reps := []*obsReplica{startObsReplica(t, "a"), startObsReplica(t, "b")}
	rt := newTestRouter(t, []string{reps[0].url(), reps[1].url()}, Config{
		// Errors must keep reaching the replicas for the burn to build;
		// an open breaker would shield them and starve the SLO signal.
		BreakerThreshold: 1 << 30,
		Obs: ObsConfig{
			FederateInterval: 25 * time.Millisecond,
			SLOTarget:        0.99,
			SLOLatencyMs:     100,
			BurnRules: []obs.BurnRule{
				{Name: "fast", Short: 250 * time.Millisecond, Long: time.Second, Factor: 2, Severity: "page"},
				{Name: "slow", Short: time.Second, Long: 4 * time.Second, Factor: 1, Severity: "warn"},
			},
		},
	})
	gw := httptest.NewServer(rt)
	defer gw.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	body := diagnoseBody(t)

	drive := func(d time.Duration) {
		end := time.Now().Add(d)
		for time.Now().Before(end) {
			postJSON(t, client, gw.URL+"/v1/diagnose", body)
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Phase 1: healthy baseline.
	drive(400 * time.Millisecond)
	var st sloStatus
	if code := getJSON(t, gw.URL+"/v1/slo", &st); code != http.StatusOK {
		t.Fatalf("/v1/slo: %d", code)
	}
	if st.firing("fast") {
		t.Fatal("fast rule firing on healthy traffic")
	}

	// Phase 2: both replicas fail — a 100% error burst through the router.
	for _, r := range reps {
		r.fail.Store(true)
	}
	deadline := time.Now().Add(10 * time.Second)
	for !st.firing("fast") {
		drive(100 * time.Millisecond)
		getJSON(t, gw.URL+"/v1/slo", &st)
		if time.Now().After(deadline) {
			t.Fatalf("fast-burn alert never fired: %+v", st)
		}
	}
	// Mid-burst, the firing fast rule's short window burns at or above its
	// factor.
	for _, o := range st.Objectives {
		for _, al := range o.Alerts {
			if al.Rule == "fast" && al.Firing && al.BurnShort < al.Factor {
				t.Errorf("%s/fast firing at short-window burn %v, below its factor %v", o.Name, al.BurnShort, al.Factor)
			}
		}
	}

	// Phase 3: recovery — errors stop, the short window drains, the
	// alert clears.
	for _, r := range reps {
		r.fail.Store(false)
	}
	deadline = time.Now().Add(15 * time.Second)
	for st.firing("fast") {
		drive(100 * time.Millisecond)
		getJSON(t, gw.URL+"/v1/slo", &st)
		if time.Now().After(deadline) {
			t.Fatalf("fast-burn alert never cleared: %+v", st)
		}
	}
}

// TestMetricsContentNegotiation pins "one path, one format" on a real
// replica and on the router: whatever the Accept header says — a
// Prometheus scraper's included — /v1/metrics is the registry's Export as
// JSON and the router's /v1/fleet/metrics the JSON fleet view.
func TestMetricsContentNegotiation(t *testing.T) {
	rep := startRealReplica(t)
	rt := newTestRouter(t, []string{rep.url()}, Config{
		Obs: ObsConfig{FederateInterval: 25 * time.Millisecond},
	})
	gw := httptest.NewServer(rt)
	defer gw.Close()
	for deadline := time.Now().Add(5 * time.Second); getJSON(t, gw.URL+"/v1/fleet/metrics", nil) != http.StatusOK; {
		if time.Now().After(deadline) {
			t.Fatal("federation never completed a sweep")
		}
		time.Sleep(10 * time.Millisecond)
	}

	cases := []struct{ name, accept string }{
		{"no accept header keeps JSON", ""},
		{"wildcard keeps JSON", "*/*"},
		{"json keeps JSON", "application/json"},
		{"OpenMetrics keeps JSON", openMetricsAccept},
		{"text/plain keeps JSON", "text/plain; version=0.0.4"},
	}
	for _, base := range []string{rep.url(), gw.URL} {
		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				ex := scrapeExport(t, base, tc.accept)
				if len(ex.Counters)+len(ex.Histograms) == 0 {
					t.Error("/v1/metrics: Export is empty")
				}

				ct, body := get(t, gw.URL+"/v1/fleet/metrics", tc.accept)
				var view obs.FleetView
				if !strings.HasPrefix(ct, "application/json") {
					t.Errorf("/v1/fleet/metrics: content type %q, want JSON", ct)
				}
				if err := json.Unmarshal([]byte(body), &view); err != nil || len(view.Replicas) != 1 {
					t.Errorf("/v1/fleet/metrics: JSON fleet view broke (%v): %s", err, body)
				}
			})
		}
	}
}

// TestObsEndpointsDisabled pins the 404 contract of every plane that is
// off, on routers configured with none, some and all of the fleet plane and
// on a journal-backed replica. The OpenMetrics text endpoint and the
// profile-capture routes are gone on all of them: the mux itself answers
// 404, and a replica ignores a profiles/ ring an older incarnation left in
// its state dir.
func TestObsEndpointsDisabled(t *testing.T) {
	router := func(obsCfg ObsConfig) func(t *testing.T) string {
		return func(t *testing.T) string {
			f := newFakeReplica(t, okDiagnose("v"))
			gw := httptest.NewServer(newTestRouter(t, []string{f.url()}, Config{Obs: obsCfg}))
			t.Cleanup(gw.Close)
			return gw.URL
		}
	}
	replica := func(t *testing.T) string {
		m, _ := fixture(t)
		stateDir := t.TempDir()
		stale := filepath.Join(stateDir, "profiles", "20240101T000000Z")
		if err := os.MkdirAll(stale, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(stale, "cpu.pprof"), []byte("stale"), 0o644); err != nil {
			t.Fatal(err)
		}
		srv, err := analysis.Open(analysis.Options{
			Bundle: core.NewBundle(m), StateDir: stateDir, Fsync: durable.FsyncNever,
		})
		if err != nil {
			t.Fatalf("Open over a state dir with a stale profiles/ ring: %v", err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(func() {
			ts.Close()
			srv.Close()
		})
		return ts.URL
	}
	cases := []struct {
		name string
		base func(t *testing.T) string
		off  []string // planes the config leaves off: their handler's 404
	}{
		{"router zero", router(ObsConfig{}), []string{"/v1/fleet/metrics", "/v1/slo"}},
		{"router federation", router(ObsConfig{FederateInterval: time.Hour}), []string{"/v1/slo"}},
		{"router federation+slo", router(ObsConfig{FederateInterval: time.Hour, SLOTarget: 0.999}), nil},
		{"replica", replica, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := tc.base(t)
			for _, path := range tc.off {
				if code := getJSON(t, base+path, nil); code != http.StatusNotFound {
					t.Errorf("%s while off: %d, want 404", path, code)
				}
			}
			profiles := "/v1/" + "profiles"
			for _, path := range []string{"/metrics", profiles, profiles + "/x/cpu.pprof"} {
				resp, err := http.Get(base + path)
				if err != nil {
					t.Fatal(err)
				}
				body := readAllString(t, resp)
				resp.Body.Close()
				if resp.StatusCode != http.StatusNotFound || body != "404 page not found\n" {
					t.Errorf("%s: %d %q, want the mux's own 404", path, resp.StatusCode, body)
				}
			}
		})
	}
}

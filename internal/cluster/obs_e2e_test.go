package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

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
	mux.Handle("/metrics", obs.ExpositionHandler(rep.reg))
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

// scrapeExport fetches and strictly parses one exposition endpoint.
func scrapeExport(t testing.TB, url string) telemetry.Export {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("scrape %s: %v", url, err)
	}
	body := readAllString(t, resp)
	resp.Body.Close()
	ex, err := obs.ParseExposition([]byte(body))
	if err != nil {
		t.Fatalf("scrape %s fails strict parse: %v", url, err)
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
// fleet view equals the arithmetic sum of the per-replica scrapes —
// counters, histogram _count/_sum, and every cumulative bucket.
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

	// Wait until a sweep has seen all 24 requests.
	var view obs.FleetView
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := getJSON(t, gw.URL+"/v1/fleet/metrics", &view); code == http.StatusOK {
			if v, ok := view.Fleet.Counter("http_diagnose_requests"); ok && v == 24 {
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

	// Independent ground truth: scrape each replica ourselves and sum.
	var wantReqs, wantCount int64
	var wantSum float64
	var wantCum []int64
	for i, rep := range reps {
		ex := scrapeExport(t, rep.url()+"/metrics")
		v, ok := ex.Counter("http_diagnose_requests")
		if !ok || v != int64(loads[i]) {
			t.Fatalf("replica %d: requests=%d ok=%v, want %d", i, v, ok, loads[i])
		}
		wantReqs += v
		h, ok := ex.Histogram("http_diagnose_latency_ms")
		if !ok {
			t.Fatalf("replica %d: no latency histogram", i)
		}
		wantCount += h.Count()
		wantSum += h.Sum
		if wantCum == nil {
			wantCum = make([]int64, len(h.Cumulative))
		}
		for j, c := range h.Cumulative {
			wantCum[j] += c
		}
	}

	// Re-fetch the fleet view so it is at least as fresh as our scrapes.
	deadline = time.Now().Add(5 * time.Second)
	for {
		getJSON(t, gw.URL+"/v1/fleet/metrics", &view)
		h, ok := view.Fleet.Histogram("http_diagnose_latency_ms")
		if ok && h.Count() == wantCount {
			if v, _ := view.Fleet.Counter("http_diagnose_requests"); v != wantReqs {
				t.Fatalf("fleet requests %d != sum of replicas %d", v, wantReqs)
			}
			if h.Sum != wantSum {
				t.Fatalf("fleet latency sum %v != arithmetic sum %v", h.Sum, wantSum)
			}
			for j, c := range h.Cumulative {
				if c != wantCum[j] {
					t.Fatalf("fleet bucket[%d]=%d != sum %d", j, c, wantCum[j])
				}
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet histogram never matched: %+v", h)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The fleet view also negotiates: Accept exposition text, and that
	// text must itself pass the strict parser.
	req, _ := http.NewRequest(http.MethodGet, gw.URL+"/v1/fleet/metrics", nil)
	req.Header.Set("Accept", obs.ContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != obs.ContentType {
		t.Fatalf("fleet exposition content type: %q", got)
	}
	if _, err := obs.ParseExposition([]byte(readAllString(t, resp))); err != nil {
		t.Fatalf("fleet exposition fails strict parse: %v", err)
	}
}

// sloStatus mirrors the /v1/slo JSON for decoding.
type sloStatus struct {
	Objectives []struct {
		Name   string `json:"name"`
		Alerts []struct {
			Rule   string `json:"rule"`
			Firing bool   `json:"firing"`
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

// TestSLOBurnAlertAndProfileCapture drives an injected error burst
// through the router and asserts the fast-burn alert fires, exactly one
// profile pair is captured within the cooldown, and the alert clears
// after recovery.
func TestSLOBurnAlertAndProfileCapture(t *testing.T) {
	reps := []*obsReplica{startObsReplica(t, "a"), startObsReplica(t, "b")}
	profileDir := t.TempDir()
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
			ProfileDir:         profileDir,
			ProfileCooldown:    time.Hour, // a sustained incident captures exactly once
			ProfileCPUDuration: 50 * time.Millisecond,
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

	// The firing transition triggered a profile capture; the cooldown
	// keeps the sustained incident at exactly one pair.
	var profiles struct {
		Captures []obs.Capture `json:"captures"`
	}
	deadline = time.Now().Add(10 * time.Second)
	for {
		getJSON(t, gw.URL+"/v1/profiles", &profiles)
		if len(profiles.Captures) > 0 && profiles.Captures[0].CPUProfile != "" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no profile captured after alert fired: %+v", profiles)
		}
		time.Sleep(25 * time.Millisecond)
	}
	if len(profiles.Captures) != 1 {
		t.Fatalf("want exactly 1 capture within cooldown, got %d", len(profiles.Captures))
	}
	if !strings.Contains(profiles.Captures[0].Reason, "slo-") {
		t.Errorf("capture reason %q does not name the SLO trigger", profiles.Captures[0].Reason)
	}
	// Keep burning: more transitions may occur (slow rule), but the
	// cooldown admits no second capture.
	drive(300 * time.Millisecond)
	getJSON(t, gw.URL+"/v1/profiles", &profiles)
	if len(profiles.Captures) != 1 {
		t.Fatalf("cooldown violated: %d captures", len(profiles.Captures))
	}
	// The profile pair downloads through the router.
	resp, err := http.Get(gw.URL + "/v1/profiles/" + profiles.Captures[0].ID + "/heap.pprof")
	if err != nil {
		t.Fatal(err)
	}
	heap := readAllString(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(heap) == 0 {
		t.Fatalf("heap profile download: %d, %d bytes", resp.StatusCode, len(heap))
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

// TestLiveExpositionLint runs the strict parser against the /metrics
// output of a real diagnetd replica stack and of the router — the
// satellite lint requirement: live exposition must satisfy every
// promlint-style rule the parser enforces.
func TestLiveExpositionLint(t *testing.T) {
	rep := startRealReplica(t)
	rt := newTestRouter(t, []string{rep.url()}, Config{})
	gw := httptest.NewServer(rt)
	defer gw.Close()

	// Traffic through the router populates both registries' route metrics.
	client := &http.Client{Timeout: 5 * time.Second}
	body := diagnoseBody(t)
	for i := 0; i < 5; i++ {
		status, out := postJSON(t, client, gw.URL+"/v1/diagnose", body)
		if status != http.StatusOK {
			t.Fatalf("diagnose %d: %d %s", i, status, out)
		}
	}

	for _, url := range []string{rep.url() + "/metrics", gw.URL + "/metrics"} {
		ex := scrapeExport(t, url) // scrapeExport fails the test on a lint error
		if len(ex.Counters)+len(ex.Histograms) == 0 {
			t.Errorf("%s: exposition is empty", url)
		}
	}
}

// TestMetricsContentNegotiation is the satellite table test: /v1/metrics
// keeps its JSON shape byte-compatible by default and serves the
// exposition only when the Accept header asks for it — on both the
// replica and the router.
func TestMetricsContentNegotiation(t *testing.T) {
	rep := startRealReplica(t)
	rt := newTestRouter(t, []string{rep.url()}, Config{})
	gw := httptest.NewServer(rt)
	defer gw.Close()

	cases := []struct {
		name       string
		accept     string
		exposition bool
	}{
		{"no accept header keeps JSON", "", false},
		{"wildcard keeps JSON", "*/*", false},
		{"json keeps JSON", "application/json", false},
		{"openmetrics negotiates exposition", obs.ContentType, false /* set below */},
		{"text/plain negotiates exposition", "text/plain; version=0.0.4", false},
	}
	cases[3].exposition = true
	cases[4].exposition = true

	for _, base := range []string{rep.url(), gw.URL} {
		// JSON byte-compatibility baseline.
		req, _ := http.NewRequest(http.MethodGet, base+"/v1/metrics", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		baseline := readAllString(t, resp)
		resp.Body.Close()
		if !json.Valid([]byte(baseline)) {
			t.Fatalf("%s: default /v1/metrics is not JSON", base)
		}

		for _, tc := range cases {
			t.Run(tc.name, func(t *testing.T) {
				req, _ := http.NewRequest(http.MethodGet, base+"/v1/metrics", nil)
				if tc.accept != "" {
					req.Header.Set("Accept", tc.accept)
				}
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				bodyStr := readAllString(t, resp)
				ct := resp.Header.Get("Content-Type")
				if tc.exposition {
					if ct != obs.ContentType {
						t.Errorf("content type %q, want exposition", ct)
					}
					if _, err := obs.ParseExposition([]byte(bodyStr)); err != nil {
						t.Errorf("negotiated exposition fails strict parse: %v", err)
					}
				} else {
					if !strings.HasPrefix(ct, "application/json") {
						t.Errorf("content type %q, want JSON", ct)
					}
					var snap struct {
						Counters   map[string]int64 `json:"counters"`
						Histograms map[string]any   `json:"histograms"`
					}
					if err := json.Unmarshal([]byte(bodyStr), &snap); err != nil {
						t.Errorf("JSON shape broke: %v", err)
					}
				}
			})
		}
	}
}

// TestObsEndpointsDisabled pins the 404 contract when the plane is off.
func TestObsEndpointsDisabled(t *testing.T) {
	f := newFakeReplica(t, okDiagnose("v"))
	rt := newTestRouter(t, []string{f.url()}, Config{})
	gw := httptest.NewServer(rt)
	defer gw.Close()
	for _, path := range []string{"/v1/fleet/metrics", "/v1/slo", "/v1/profiles"} {
		if code := getJSON(t, gw.URL+path, nil); code != http.StatusNotFound {
			t.Errorf("%s without obs config: %d, want 404", path, code)
		}
	}
}

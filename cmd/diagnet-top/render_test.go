package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"diagnet/internal/cluster"
	"diagnet/internal/obs"
	"diagnet/internal/telemetry"
)

// fakeRouter serves the three endpoints diagnet-top reads, with swappable
// fleet views so a test can present two samples.
type fakeRouter struct {
	view     obs.FleetView
	slo      *sloDoc
	replicas []cluster.ReplicaStatus
}

func (f *fakeRouter) serve(t *testing.T) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/fleet/metrics", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(f.view)
	})
	mux.HandleFunc("/v1/slo", func(w http.ResponseWriter, r *http.Request) {
		if f.slo == nil {
			http.NotFound(w, r)
			return
		}
		json.NewEncoder(w).Encode(f.slo)
	})
	mux.HandleFunc("/v1/replicas", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(f.replicas)
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

// exportWith builds an export carrying n diagnose requests, e errors and
// a latency histogram with all n observations in the ≤10ms bucket.
func exportWith(n, e int64) telemetry.Export {
	return telemetry.Export{
		Counters: []telemetry.CounterPoint{
			{Name: "http.diagnose.errors", Value: e},
			{Name: "http.diagnose.requests", Value: n},
		},
		Histograms: []telemetry.HistogramPoint{{
			Name:       "http.diagnose.latency_ms",
			Bounds:     []float64{1, 10, 100},
			Cumulative: []int64{0, n, n, n},
			Sum:        float64(n) * 5,
		}},
	}
}

func TestCollectAndRenderWindowedView(t *testing.T) {
	f := &fakeRouter{
		view: obs.FleetView{
			Replicas: []obs.ReplicaMetrics{
				{Name: "http://r1", Export: exportWith(100, 0)},
				{Name: "http://r2", Export: exportWith(50, 0)},
			},
			Fleet: exportWith(150, 0),
		},
		slo: &sloDoc{},
		replicas: []cluster.ReplicaStatus{
			{Name: "http://r1", Healthy: true, Breaker: "closed"},
			{Name: "http://r2", Healthy: true, Breaker: "closed"},
		},
	}
	f.slo.Objectives = append(f.slo.Objectives, struct {
		Name            string  `json:"name"`
		Goal            float64 `json:"goal"`
		BudgetRemaining float64 `json:"budget_remaining"`
		Alerts          []struct {
			Rule     string `json:"rule"`
			Severity string `json:"severity"`
			Firing   bool   `json:"firing"`
		} `json:"alerts"`
	}{Name: "diagnose-availability", Goal: 0.99, BudgetRemaining: 0.8})

	srv := f.serve(t)
	client := &http.Client{Timeout: 5 * time.Second}
	prev, err := collect(client, srv.URL)
	if err != nil {
		t.Fatal(err)
	}

	// Second sample: 200 more fleet requests, 10 of them errors, all on r1.
	f.view.Fleet = exportWith(350, 10)
	f.view.Replicas[0].Export = exportWith(300, 10)
	cur, err := collect(client, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	// Pin the elapsed window so QPS is deterministic.
	cur.At = prev.At.Add(2 * time.Second)

	var sb strings.Builder
	render(&sb, prev, cur)
	out := sb.String()

	for _, want := range []string{
		"2 replicas",
		"100.0 qps", // 200 requests / 2s
		"errors  5.00%",
		"diagnose-availability",
		"budget   80.0%",
		"http://r1",
		"http://r2",
		"ready",
		"closed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered view lacks %q:\n%s", want, out)
		}
	}
	// r2 took no traffic in the window; its row shows 0 qps and an empty
	// p99, not stale lifetime numbers.
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "http://r2") {
			if !strings.Contains(line, "0.0") || !strings.Contains(line, "—") {
				t.Errorf("r2 row should be windowed-empty: %q", line)
			}
		}
	}
}

func TestCollectWithoutSLO(t *testing.T) {
	f := &fakeRouter{
		view:     obs.FleetView{Fleet: exportWith(1, 0)},
		replicas: []cluster.ReplicaStatus{},
	}
	srv := f.serve(t)
	s, err := collect(&http.Client{Timeout: 5 * time.Second}, srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	if s.SLO != nil {
		t.Fatal("404 /v1/slo should leave SLO nil")
	}
	var sb strings.Builder
	render(&sb, s, s) // degenerate zero-window render must not panic
	if !strings.Contains(sb.String(), "0 replicas") {
		t.Errorf("unexpected render:\n%s", sb.String())
	}
}

// The ROWS/PASS column is the windowed mean of serving.pass.rows: what a
// replica's inference passes fused between the two samples, not since boot.
func TestRenderRowsPerPass(t *testing.T) {
	passes := func(e telemetry.Export, count int64, sum float64) telemetry.Export {
		e.Histograms = append(e.Histograms, telemetry.HistogramPoint{
			Name:       metricPassRows,
			Bounds:     []float64{1, 2, 4},
			Cumulative: []int64{0, 0, count, count},
			Sum:        sum,
		})
		return e
	}
	at := time.Now()
	prev := &fleetSample{At: at, View: obs.FleetView{Replicas: []obs.ReplicaMetrics{
		{Name: "http://r1", Export: passes(exportWith(20, 0), 10, 20)},
		{Name: "http://r2", Export: passes(exportWith(20, 0), 10, 20)},
	}}}
	// r1 served 90 more requests in 30 passes; r2 served none.
	cur := &fleetSample{At: at.Add(time.Second), View: obs.FleetView{Replicas: []obs.ReplicaMetrics{
		{Name: "http://r1", Export: passes(exportWith(110, 0), 40, 110)},
		{Name: "http://r2", Export: passes(exportWith(20, 0), 10, 20)},
	}}}
	var sb strings.Builder
	render(&sb, prev, cur)
	for _, line := range strings.Split(sb.String(), "\n") {
		switch {
		case strings.Contains(line, "REPLICA") && !strings.HasSuffix(line, "ROWS/PASS"):
			t.Errorf("header lacks the ROWS/PASS column: %q", line)
		case strings.Contains(line, "http://r1") && !strings.HasSuffix(line, "   3.0"):
			t.Errorf("r1 fused 90 rows in 30 passes, want 3.0: %q", line)
		case strings.Contains(line, "http://r2") && !strings.HasSuffix(line, "—"):
			t.Errorf("r2 ran no pass in the window, want a dash: %q", line)
		}
	}
}

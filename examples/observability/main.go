// Observability: the fleet observability plane end to end — two replicas
// with their own metric registries behind a router that federates their
// expositions into one exactly-merged fleet view, an SLO burn-rate alert
// driven by injected faults, and the recovery that clears the alert.
//
//	go run ./examples/observability
//
// The walkthrough is the in-process version of:
//
//	diagnetd -addr :8421 ... ; diagnetd -addr :8422 ...
//	diagnet-router -replicas http://localhost:8421,http://localhost:8422 \
//	    -federate-interval 1s -slo-target 0.999 -slo-latency-ms 100
//	diagnet-top -router http://localhost:8420 -watch
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"time"

	"diagnet"
	"diagnet/internal/analysis"
	"diagnet/internal/cluster"
	"diagnet/internal/obs"
	"diagnet/internal/telemetry"
)

// Size knobs, package-level so the smoke test can shrink them.
var (
	nominalSamples = 300
	faultSamples   = 800
	filters        = 6
	hidden         = []int{24, 12}
	epochs         = 6
	healthyDrive   = 1 * time.Second
	alertDeadline  = 20 * time.Second
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// replica is one in-process stand-in for a diagnetd: its own registry
// (two real diagnetd processes do not share memory), an instrumented
// diagnose route behind a fault injector, and an exposition endpoint for
// the router's federator to scrape.
type replica struct {
	srv   *httptest.Server
	flaky *diagnet.FlakyHandler
}

func startReplica(model *diagnet.Model, layout diagnet.Layout) *replica {
	reg := telemetry.New()
	diagnose := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req analysis.DiagnoseRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		d := model.Diagnose(req.Features, layout)
		json.NewEncoder(w).Encode(map[string]any{
			"top_cause": layout.FeatureName(d.Ranked()[0]),
		})
	})
	// The fault injector sits INSIDE the instrumentation: injected 500s
	// must land in the replica's error counter, or the SLO engine would
	// never see the burst.
	flaky := diagnet.NewFlakyHandler(diagnose, diagnet.FlakyConfig{})
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	})
	mux.Handle("GET /v1/metrics", obs.MetricsHandler(reg)) // what the router federates
	mux.Handle("GET /metrics", obs.ExpositionHandler(reg))
	mux.Handle("/v1/diagnose", obs.Instrument(reg, "http", "diagnose", flaky.ServeHTTP))
	return &replica{srv: httptest.NewServer(mux), flaky: flaky}
}

func run(out io.Writer) error {
	// 1. One small model serves on both replicas, as a real fleet would.
	world := diagnet.NewWorld(diagnet.WorldConfig{Seed: 1})
	data := diagnet.Generate(diagnet.GenConfig{
		World:          world,
		NominalSamples: nominalSamples,
		FaultSamples:   faultSamples,
		Seed:           11,
	})
	train, test := data.Split(0.8, diagnet.HiddenLandmarks(), 13)
	cfg := diagnet.DefaultConfig()
	cfg.Filters = filters
	cfg.Hidden = hidden
	cfg.Epochs = epochs
	model := diagnet.TrainGeneral(train, diagnet.KnownRegions(), cfg).Model
	deg := test.Degraded()
	if deg.Len() == 0 {
		return fmt.Errorf("no degraded samples")
	}
	body, err := json.Marshal(analysis.DiagnoseRequest{
		ServiceID: deg.Samples[0].Service,
		Landmarks: test.Layout.Landmarks,
		Features:  deg.Samples[0].Features,
	})
	if err != nil {
		return err
	}

	// 2. Two replicas + the router with the full observability plane:
	// federation every 50ms (a demo cadence; production uses seconds) and
	// a 99.9% objective.
	r1, r2 := startReplica(model, test.Layout), startReplica(model, test.Layout)
	defer r1.srv.Close()
	defer r2.srv.Close()
	rt := diagnet.NewClusterRouter([]string{r1.srv.URL, r2.srv.URL}, cluster.Config{
		// Keep errors flowing to the replicas during the burst: an open
		// breaker would shield them and starve the SLO signal.
		BreakerThreshold: 1 << 30,
		Obs: cluster.ObsConfig{
			FederateInterval: 50 * time.Millisecond,
			SLOTarget:        0.999,
			SLOLatencyMs:     100,
			BurnRules: []obs.BurnRule{
				// Demo-scale windows; production uses DefaultBurnRules
				// (5m/1h page, 6h/3d warn).
				{Name: "fast", Short: 400 * time.Millisecond, Long: 1500 * time.Millisecond, Factor: 2, Severity: "page"},
			},
		},
	})
	defer rt.Close()
	gw := httptest.NewServer(rt)
	defer gw.Close()
	client := &http.Client{Timeout: 10 * time.Second}
	fmt.Fprintf(out, "fleet up: 2 replicas behind %s (federating every 50ms)\n", gw.URL)

	drive := func(d time.Duration) {
		end := time.Now().Add(d)
		for time.Now().Before(end) {
			resp, err := client.Post(gw.URL+"/v1/diagnose", "application/json", bytes.NewReader(body))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// 3. Healthy traffic: the federated view is the exact sum of the
	// per-replica counters.
	drive(healthyDrive)
	var view obs.FleetView
	if err := getJSON(client, gw.URL+"/v1/fleet/metrics", &view); err != nil {
		return fmt.Errorf("fleet metrics: %w", err)
	}
	fleetReqs, _ := view.Fleet.Counter(obs.DiagnoseRoute.Requests)
	fmt.Fprintf(out, "healthy: fleet served %d diagnoses —", fleetReqs)
	for _, r := range view.Replicas {
		n, _ := r.Export.Counter(obs.DiagnoseRoute.Requests)
		fmt.Fprintf(out, " %d", n)
	}
	fmt.Fprintf(out, " per replica (sums exactly)\n")

	// 4. Fault injection: every request on both replicas now fails, the
	// error budget burns, the fast rule pages.
	r1.flaky.SetConfig(diagnet.FlakyConfig{ErrorRate: 1, Seed: 7})
	r2.flaky.SetConfig(diagnet.FlakyConfig{ErrorRate: 1, Seed: 7})
	fmt.Fprintf(out, "injecting faults: 100%% of replica responses now 5xx\n")
	deadline := time.Now().Add(alertDeadline)
	for {
		drive(100 * time.Millisecond)
		if st, err := sloState(client, gw.URL); err == nil && st.firing {
			fmt.Fprintf(out, "SLO alert FIRING: %s (budget %.1f%% remaining)\n", st.desc, st.budget*100)
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("burn-rate alert never fired")
		}
	}

	// 5. Recovery: faults stop, the short window drains, the alert clears.
	r1.flaky.SetConfig(diagnet.FlakyConfig{})
	r2.flaky.SetConfig(diagnet.FlakyConfig{})
	fmt.Fprintf(out, "faults healed; waiting for the alert to clear\n")
	deadline = time.Now().Add(alertDeadline)
	for {
		drive(100 * time.Millisecond)
		if st, err := sloState(client, gw.URL); err == nil && !st.firing {
			fmt.Fprintf(out, "SLO alert cleared — fleet healthy again\n")
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("alert never cleared")
		}
	}
}

// sloSummary is the fast-rule slice of /v1/slo.
type sloSummary struct {
	firing bool
	budget float64
	desc   string
}

func sloState(client *http.Client, base string) (sloSummary, error) {
	var doc struct {
		Objectives []struct {
			Name            string  `json:"name"`
			BudgetRemaining float64 `json:"budget_remaining"`
			Alerts          []struct {
				Rule     string `json:"rule"`
				Severity string `json:"severity"`
				Firing   bool   `json:"firing"`
			} `json:"alerts"`
		} `json:"objectives"`
	}
	if err := getJSON(client, base+"/v1/slo", &doc); err != nil {
		return sloSummary{}, err
	}
	for _, o := range doc.Objectives {
		for _, a := range o.Alerts {
			if a.Firing {
				return sloSummary{
					firing: true,
					budget: o.BudgetRemaining,
					desc:   fmt.Sprintf("%s/%s (%s)", o.Name, a.Rule, a.Severity),
				}, nil
			}
		}
	}
	return sloSummary{}, nil
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

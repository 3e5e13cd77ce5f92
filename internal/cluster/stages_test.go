package cluster

import (
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"testing"
	"time"

	"diagnet/internal/obs"
	"diagnet/internal/tracing"
)

// ladderProductRungs reads the benchmark ladder's rung tree
// (bench/ladder.go, rungParent) and returns serving.submit and every rung
// beneath it: the layers of a diagnosis a replica times itself.
func ladderProductRungs(t *testing.T) []string {
	t.Helper()
	src, err := os.ReadFile("../../bench/ladder.go")
	if err != nil {
		t.Fatal(err)
	}
	parent := map[string]string{}
	for _, m := range regexp.MustCompile(`(?m)^\s*"([a-z_.]+)":\s*"([a-z_.]*)",$`).FindAllStringSubmatch(string(src), -1) {
		parent[m[1]] = m[2]
	}
	if len(parent) == 0 {
		t.Fatal("no rungParent entries in bench/ladder.go")
	}
	var rungs []string
	for name := range parent {
		for r := name; r != ""; r = parent[r] {
			if r == "serving.submit" {
				rungs = append(rungs, name)
				break
			}
		}
	}
	slices.Sort(rungs)
	return rungs
}

// TestStagesAreTheLadderRungs: the stage table names exactly the ladder's
// rungs from serving.submit down, and after one routed diagnosis the
// router's /v1/fleet/metrics carries a histogram with observations under
// each of those names — so every row the benchmark attributes time to in
// the product can be read off a running fleet.
func TestStagesAreTheLadderRungs(t *testing.T) {
	var stages []string
	for _, st := range tracing.Stages {
		stages = append(stages, st.Name())
	}
	slices.Sort(stages)
	if rungs := ladderProductRungs(t); !slices.Equal(stages, rungs) {
		t.Fatalf("stage table %v, ladder rungs from serving.submit down %v", stages, rungs)
	}

	rep := startRealReplica(t)
	rt := newTestRouter(t, []string{rep.url()}, Config{Obs: ObsConfig{FederateInterval: 25 * time.Millisecond}})
	gw := httptest.NewServer(rt)
	defer gw.Close()
	client := &http.Client{Timeout: 5 * time.Second}
	if status, body := postJSON(t, client, gw.URL+"/v1/diagnose", diagnoseBody(t)); status != http.StatusOK {
		t.Fatalf("routed diagnose: %d %s", status, body)
	}

	var missing []string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		var view obs.FleetView
		missing = missing[:0]
		if getJSON(t, gw.URL+"/v1/fleet/metrics", &view) == http.StatusOK {
			for _, name := range stages {
				if h, ok := view.Fleet.Histogram(tracing.LatencyName(name)); !ok || h.Count() == 0 {
					missing = append(missing, name)
				}
			}
			if len(missing) == 0 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("/v1/fleet/metrics lacks observations for stages %v", missing)
		}
	}
}

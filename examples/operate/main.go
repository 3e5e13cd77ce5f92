// Operate: the Fig. 1 loop against the deployed serving tier, in one
// process. Two analysis replicas boot through analysis.Open — the boot
// path diagnetd runs — behind a cluster.Router, the handler of
// diagnet-router. A client agent probes its landmarks each round, detects
// a QoE degradation, and asks the router for a diagnosis.
//
//	go run ./examples/operate
//
// The walkthrough is the in-process version of:
//
//	diagnetd -model model.gob -addr :8421 ; diagnetd -model model.gob -addr :8422
//	diagnet-router -replicas http://localhost:8421,http://localhost:8422
//	diagnet agent -analysis http://localhost:8420 ...
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http/httptest"
	"os"

	"diagnet"
	"diagnet/internal/analysis"
	"diagnet/internal/cluster"
	"diagnet/internal/netsim"
)

// Size knobs, package-level so the smoke test can shrink them.
var (
	nominalSamples = 800
	faultSamples   = 1800
	filters        = 8
	hidden         = []int{48, 24}
	epochs         = 10
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(out io.Writer) error {
	// Train a small general model on the simulated deployment.
	world := diagnet.NewWorld(diagnet.WorldConfig{Seed: 1})
	data := diagnet.Generate(diagnet.GenConfig{
		World: world, NominalSamples: nominalSamples, FaultSamples: faultSamples, Seed: 11,
	})
	train, _ := data.Split(0.8, diagnet.HiddenLandmarks(), 13)
	cfg := diagnet.DefaultConfig()
	cfg.Filters = filters
	cfg.Hidden = hidden
	cfg.Epochs = epochs
	model := diagnet.TrainGeneral(train, diagnet.KnownRegions(), cfg).Model

	// Two replicas serve it as version "boot", each booted the way
	// diagnetd boots, and the router fronts them.
	var urls []string
	for i := 0; i < 2; i++ {
		srv, err := analysis.Open(analysis.Options{Bundle: diagnet.NewBundle(model)})
		if err != nil {
			return err
		}
		defer srv.Close()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	router := cluster.NewRouter(urls, cluster.Config{})
	defer router.Close()
	gw := httptest.NewServer(router)
	defer gw.Close()
	client := analysis.NewClient(gw.URL)
	fmt.Fprintf(out, "router on %s over replicas %v\n", gw.URL, urls)

	// A client in AMST watches image.local@GRAV. A loss fault hits GRAV
	// from tick 60 on.
	layout := diagnet.FullLayout()
	svc := diagnet.Catalog()[3]
	source := diagnet.NewSimSource(world, netsim.AMST, svc, layout, func(tick int64) []diagnet.Fault {
		if tick >= 60 {
			return []diagnet.Fault{diagnet.NewFault(diagnet.FaultLoss, netsim.GRAV)}
		}
		return nil
	}, 5)
	agent := diagnet.NewAgent(source)

	// Probe up to 70 rounds; the first degraded one is diagnosed through
	// the router.
	ctx := context.Background()
	for tick := int64(0); tick < 70; tick++ {
		r, degraded, err := agent.Step(ctx, tick)
		if err != nil {
			return err
		}
		if !degraded {
			continue
		}
		fmt.Fprintf(out, "\ntick %d: QoE degraded — page load %.0f ms\n", tick, r.LoadMs)
		resp, err := client.Diagnose(ctx, &analysis.DiagnoseRequest{
			ServiceID: svc.ID,
			Landmarks: r.Landmarks,
			Features:  r.Features,
			TopK:      3,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "diagnosed through the router: family=%s model_version=%s (w_unknown=%.2f)\n",
			resp.Family, resp.ModelVersion, resp.UnknownWeight)
		for i, c := range resp.Causes {
			fmt.Fprintf(out, "  %d. %-14s (%s) score %.3f\n", i+1, c.Name, c.Family, c.Score)
		}
		return nil
	}
	return fmt.Errorf("no degraded round in 70 ticks")
}

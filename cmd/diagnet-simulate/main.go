// Command diagnet-simulate plays what-if scenarios on the simulated
// deployment: inject faults, see which services' QoE degrades for which
// clients, what the ground-truth root cause is, and (with -model) what a
// trained model diagnoses.
//
// Usage:
//
//	diagnet-simulate -faults loss@GRAV,rate@SING [-client AMST] [-model model.gob]
//
// Fault kinds: rate, service-delay, gateway-delay, jitter, loss, cpu-stress.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"diagnet"
	"diagnet/internal/netsim"
	"diagnet/internal/probe"
	"diagnet/internal/qoe"
)

func main() {
	faultsFlag := flag.String("faults", "loss@GRAV", "comma-separated kind@REGION faults")
	clientFlag := flag.String("client", "AMST", "client region name")
	modelPath := flag.String("model", "", "optional bundle file from diagnet-train; its general model diagnoses")
	tick := flag.Int64("tick", 42, "simulation tick (diurnal congestion phase)")
	flag.Parse()

	world := diagnet.NewWorld(diagnet.WorldConfig{Seed: 1})
	regions := diagnet.DefaultRegions()
	regionByName := map[string]int{}
	for i, r := range regions {
		regionByName[r.Name] = i
	}
	kindByName := map[string]diagnet.FaultKind{}
	for _, k := range netsim.AllFaultKinds() {
		kindByName[k.String()] = k
	}

	client, ok := regionByName[strings.ToUpper(*clientFlag)]
	if !ok {
		log.Fatalf("unknown client region %q", *clientFlag)
	}
	env := diagnet.Env{Tick: *tick}
	for _, spec := range strings.Split(*faultsFlag, ",") {
		parts := strings.SplitN(strings.TrimSpace(spec), "@", 2)
		if len(parts) != 2 {
			log.Fatalf("bad fault spec %q (want kind@REGION)", spec)
		}
		kind, ok := kindByName[parts[0]]
		if !ok {
			log.Fatalf("unknown fault kind %q", parts[0])
		}
		region, ok := regionByName[strings.ToUpper(parts[1])]
		if !ok {
			log.Fatalf("unknown region %q", parts[1])
		}
		env.Faults = append(env.Faults, diagnet.NewFault(kind, region))
	}

	fmt.Printf("scenario: tick %d, faults %v, client %s\n\n", *tick, env.Faults, regions[client].Name)

	// Ground truth per service.
	q := qoe.New(world)
	layout := diagnet.FullLayout()
	fmt.Printf("%-18s %10s %10s  %-10s %s\n", "service", "clean(ms)", "now(ms)", "degraded", "root cause")
	for _, svc := range diagnet.Catalog() {
		clean := q.Baseline(client, svc, *tick)
		now := q.LoadTime(client, svc, env, nil)
		idx, degraded := q.RootCause(client, svc, env)
		cause := "-"
		if degraded {
			f := env.Faults[idx]
			if c, ok := layout.CauseOf(f); ok {
				cause = layout.FeatureName(c)
			}
		}
		fmt.Printf("%-18s %10.0f %10.0f  %-10v %s\n", svc.Name(), clean, now, degraded, cause)
	}

	// Model diagnosis of the client's measurement snapshot.
	if *modelPath == "" {
		fmt.Println("\n(pass -model model.gob to also run a trained diagnosis)")
		return
	}
	f, err := os.Open(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	b, err := diagnet.LoadBundle(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	model := b.General
	prober := probe.Prober{W: world}
	x := prober.Sample(client, layout, env, nil)
	diag := model.Diagnose(x, layout)
	fmt.Printf("\nmodel diagnosis (coarse family %v, w_unknown %.2f):\n", diag.Family, diag.UnknownWeight)
	for i, j := range diag.Ranked()[:5] {
		fmt.Printf("  %d. %-14s score %.3f\n", i+1, layout.FeatureName(j), diag.Final[j])
	}
}

// Command diagnet-trace records and replays probing sessions: record runs
// a simulated client session (with optional scheduled faults) into a trace
// file; replay feeds a recorded trace back through a collector agent and,
// with -model, diagnoses every QoE degradation offline — the post-mortem
// workflow of §III-A.
//
// Usage:
//
//	diagnet-trace record -out trace.gob -client AMST -service 3 \
//	    -faults loss@GRAV:60 -ticks 120
//	diagnet-trace replay -in trace.gob -model model.gob
//
// Fault specs are kind@REGION:sinceTick.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"strings"

	"diagnet"
	"diagnet/internal/collector"
	"diagnet/internal/netsim"
)

func main() {
	if len(os.Args) < 2 {
		log.Fatal("usage: diagnet-trace record|replay [flags]")
	}
	switch os.Args[1] {
	case "record":
		record(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	default:
		log.Fatalf("unknown subcommand %q", os.Args[1])
	}
}

type scheduledFault struct {
	fault netsim.Fault
	since int64
}

func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	out := fs.String("out", "trace.gob", "output trace file")
	clientFlag := fs.String("client", "AMST", "client region")
	serviceID := fs.Int("service", 0, "monitored service ID")
	faultsFlag := fs.String("faults", "", "comma-separated kind@REGION:sinceTick")
	ticks := fs.Int64("ticks", 120, "number of probing rounds")
	seed := fs.Int64("seed", 1, "world/noise seed")
	fs.Parse(args)

	world := diagnet.NewWorld(diagnet.WorldConfig{Seed: *seed})
	regions := regionIndex()
	client, ok := regions[strings.ToUpper(*clientFlag)]
	if !ok {
		log.Fatalf("unknown region %q", *clientFlag)
	}
	catalog := diagnet.Catalog()
	if *serviceID < 0 || *serviceID >= len(catalog) {
		log.Fatalf("service %d out of range", *serviceID)
	}
	schedule, err := parseFaults(*faultsFlag, regions)
	if err != nil {
		log.Fatal(err)
	}

	layout := diagnet.FullLayout()
	src := collector.NewSimSource(world, client, catalog[*serviceID], layout, func(tick int64) []netsim.Fault {
		var active []netsim.Fault
		for _, sf := range schedule {
			if tick >= sf.since {
				active = append(active, sf.fault)
			}
		}
		return active
	}, *seed+7)

	tickList := make([]int64, *ticks)
	for i := range tickList {
		tickList[i] = int64(i)
	}
	tr := diagnet.RecordTrace(src, layout, tickList)
	degraded := 0
	for _, d := range tr.Degraded {
		if d {
			degraded++
		}
	}
	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := tr.Save(f); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "recorded %d rounds (%d degraded) to %s\n", tr.Len(), degraded, *out)
}

func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	in := fs.String("in", "trace.gob", "trace file")
	modelPath := fs.String("model", "", "optional bundle file from diagnet-train; its general model diagnoses offline")
	fs.Parse(args)

	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	tr, err := diagnet.LoadTrace(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
	}
	var model *diagnet.Model
	if *modelPath != "" {
		mf, err := os.Open(*modelPath)
		if err != nil {
			log.Fatal(err)
		}
		b, err := diagnet.LoadBundle(mf)
		mf.Close()
		if err != nil {
			log.Fatal(err)
		}
		model = b.General
	}

	layout := tr.Layout()
	agent := diagnet.NewAgent(tr.Replay(), layout.NumFeatures(), diagnet.AgentConfig{})
	for i := 0; i < tr.Len(); i++ {
		tick := tr.Ticks[i]
		ev, degraded := agent.Step(tick)
		if !degraded {
			continue
		}
		fmt.Printf("tick %d: degraded; pre-filter flags:", tick)
		for _, j := range ev.Anomalies {
			fmt.Printf(" %s", layout.FeatureName(j))
		}
		fmt.Println()
		if model != nil {
			diag := model.Diagnose(ev.Features, layout)
			fmt.Printf("  diagnosis: family=%v, top causes:", diag.Family)
			for _, j := range diag.Ranked()[:3] {
				fmt.Printf(" %s(%.3f)", layout.FeatureName(j), diag.Final[j])
			}
			fmt.Println()
		}
	}
	steps, events, _ := agent.Stats()
	fmt.Fprintf(os.Stderr, "replayed %d rounds, %d degradations\n", steps, events)
}

func regionIndex() map[string]int {
	m := map[string]int{}
	for i, r := range diagnet.DefaultRegions() {
		m[r.Name] = i
	}
	return m
}

func parseFaults(spec string, regions map[string]int) ([]scheduledFault, error) {
	if spec == "" {
		return nil, nil
	}
	kinds := map[string]diagnet.FaultKind{}
	for _, k := range netsim.AllFaultKinds() {
		kinds[k.String()] = k
	}
	var out []scheduledFault
	for _, part := range strings.Split(spec, ",") {
		fields := strings.Split(strings.TrimSpace(part), ":")
		since := int64(0)
		if len(fields) == 2 {
			v, err := strconv.ParseInt(fields[1], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad since-tick in %q", part)
			}
			since = v
		} else if len(fields) != 1 {
			return nil, fmt.Errorf("bad fault spec %q", part)
		}
		kr := strings.SplitN(fields[0], "@", 2)
		if len(kr) != 2 {
			return nil, fmt.Errorf("bad fault spec %q (want kind@REGION[:tick])", part)
		}
		kind, ok := kinds[kr[0]]
		if !ok {
			return nil, fmt.Errorf("unknown fault kind %q", kr[0])
		}
		region, ok := regions[strings.ToUpper(kr[1])]
		if !ok {
			return nil, fmt.Errorf("unknown region %q", kr[1])
		}
		out = append(out, scheduledFault{fault: diagnet.NewFault(kind, region), since: since})
	}
	return out, nil
}

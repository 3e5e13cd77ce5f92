package main

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"

	"diagnet"
	"diagnet/internal/collector"
	"diagnet/internal/netsim"
	"diagnet/internal/probe"
	"diagnet/internal/qoe"
)

// runSimulate plays a what-if scenario on the simulated deployment: inject
// faults, see which services' QoE degrades for which clients, what the
// ground-truth root cause is, and (with -model) what a trained model
// diagnoses. Faults are trace's specs; one whose since-tick is past -tick
// is not active yet.
//
//	diagnet simulate -faults loss@GRAV,rate@SING [-client AMST] [-model model.gob]
//
// Fault kinds: rate, service-delay, gateway-delay, jitter, loss, cpu-stress.
func runSimulate(args []string) error {
	fs := newFlags("simulate", "")
	faultsFlag := fs.String("faults", "loss@GRAV", "comma-separated kind@REGION[:sinceTick] faults")
	clientFlag := fs.String("client", "AMST", "client region name")
	modelPath := fs.String("model", "", "optional bundle file from diagnet train; its general model diagnoses")
	tick := fs.Int64("tick", 42, "simulation tick (diurnal congestion phase)")
	if err := parse(fs, args); err != nil {
		return err
	}

	world := diagnet.NewWorld(diagnet.WorldConfig{Seed: 1})
	regions := diagnet.DefaultRegions()
	index := regionIndex()
	client, ok := index[strings.ToUpper(*clientFlag)]
	if !ok {
		return usagef("unknown client region %q", *clientFlag)
	}
	schedule, err := parseFaults(*faultsFlag, index)
	if err != nil {
		return usageError(err.Error())
	}
	env := diagnet.Env{Tick: *tick, Faults: activeAt(schedule, *tick)}

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
		return nil
	}
	model, err := loadGeneral(*modelPath)
	if err != nil {
		return err
	}
	prober := probe.Prober{W: world}
	x := prober.Sample(client, layout, env, nil)
	diag := model.Diagnose(x, layout)
	fmt.Printf("\nmodel diagnosis (coarse family %v, w_unknown %.2f):\n", diag.Family, diag.UnknownWeight)
	for i, j := range diag.Ranked()[:5] {
		fmt.Printf("  %d. %-14s score %.3f\n", i+1, layout.FeatureName(j), diag.Final[j])
	}
	return nil
}

// runTrace records and replays probing sessions: record runs a simulated
// client session (with optional scheduled faults) into a trace file of
// features and page-load times; replay feeds a recorded trace back through
// a collector agent, which flags degraded rounds by the same rule as a
// live agent, and, with -model, diagnoses each of them offline — the
// post-mortem workflow of §III-A.
//
//	diagnet trace record -out trace.gob -client AMST -service 3 \
//	    -faults loss@GRAV:60 -ticks 120
//	diagnet trace replay -in trace.gob -model model.gob
//
// Fault specs are kind@REGION[:sinceTick].
func runTrace(args []string) error {
	if len(args) > 0 {
		switch args[0] {
		case "record":
			return record(args[1:])
		case "replay":
			return replay(args[1:])
		case "-h", "-help", "--help":
			fmt.Fprintln(os.Stderr, "usage: diagnet trace record|replay [flags]")
			return nil
		}
	}
	return usagef("want record or replay (usage: diagnet trace record|replay [flags])")
}

type scheduledFault struct {
	fault netsim.Fault
	since int64
}

func record(args []string) error {
	fs := newFlags("trace record", "")
	out := fs.String("out", "trace.gob", "output trace file")
	clientFlag := fs.String("client", "AMST", "client region")
	serviceID := fs.Int("service", 0, "monitored service ID")
	faultsFlag := fs.String("faults", "", "comma-separated kind@REGION:sinceTick")
	ticks := fs.Int64("ticks", 120, "number of probing rounds")
	seed := fs.Int64("seed", 1, "world/noise seed")
	if err := parse(fs, args); err != nil {
		return err
	}

	world := diagnet.NewWorld(diagnet.WorldConfig{Seed: *seed})
	regions := regionIndex()
	client, ok := regions[strings.ToUpper(*clientFlag)]
	if !ok {
		return usagef("unknown region %q", *clientFlag)
	}
	catalog := diagnet.Catalog()
	if *serviceID < 0 || *serviceID >= len(catalog) {
		return usagef("service %d out of range", *serviceID)
	}
	schedule, err := parseFaults(*faultsFlag, regions)
	if err != nil {
		return usageError(err.Error())
	}

	src := collector.NewSimSource(world, client, catalog[*serviceID], diagnet.FullLayout(), func(tick int64) []netsim.Fault {
		return activeAt(schedule, tick)
	}, *seed+7)

	tickList := make([]int64, *ticks)
	for i := range tickList {
		tickList[i] = int64(i)
	}
	tr, err := diagnet.RecordTrace(context.Background(), src, tickList)
	if err != nil {
		return err
	}
	if err := publish(*out, tr.Save); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded %d rounds to %s\n", tr.Len(), *out)
	return nil
}

func replay(args []string) error {
	fs := newFlags("trace replay", "")
	in := fs.String("in", "trace.gob", "trace file")
	modelPath := fs.String("model", "", "optional bundle file from diagnet train; its general model diagnoses offline")
	if err := parse(fs, args); err != nil {
		return err
	}

	tr, err := load(*in, diagnet.LoadTrace)
	if err != nil {
		return err
	}
	var model *diagnet.Model
	if *modelPath != "" {
		if model, err = loadGeneral(*modelPath); err != nil {
			return err
		}
	}

	layout := tr.Layout()
	agent := diagnet.NewAgent(tr.Replay())
	for _, tick := range tr.Ticks {
		r, degraded, _ := agent.Step(context.Background(), tick) // a replayed round never fails
		if !degraded {
			continue
		}
		fmt.Printf("tick %d: degraded, page load %.0f ms\n", tick, r.LoadMs)
		if model != nil {
			diag := model.Diagnose(r.Features, layout)
			fmt.Printf("  diagnosis: family=%v, top causes:", diag.Family)
			for _, j := range diag.Ranked()[:3] {
				fmt.Printf(" %s(%.3f)", layout.FeatureName(j), diag.Final[j])
			}
			fmt.Println()
		}
	}
	steps, events := agent.Stats()
	fmt.Fprintf(os.Stderr, "replayed %d rounds, %d degradations\n", steps, events)
	return nil
}

func regionIndex() map[string]int {
	m := map[string]int{}
	for i, r := range diagnet.DefaultRegions() {
		m[r.Name] = i
	}
	return m
}

// parseFaults parses comma-separated kind@REGION[:sinceTick] specs; a
// spec without a since-tick is active from tick 0.
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
		fault, sinceTick, timed := strings.Cut(strings.TrimSpace(part), ":")
		var since int64
		if timed {
			v, err := strconv.ParseInt(sinceTick, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("bad since-tick in %q", part)
			}
			since = v
		}
		kindName, regionName, ok := strings.Cut(fault, "@")
		if !ok {
			return nil, fmt.Errorf("bad fault spec %q (want kind@REGION[:tick])", part)
		}
		kind, ok := kinds[kindName]
		if !ok {
			return nil, fmt.Errorf("unknown fault kind %q", kindName)
		}
		region, ok := regions[strings.ToUpper(regionName)]
		if !ok {
			return nil, fmt.Errorf("unknown region %q", regionName)
		}
		out = append(out, scheduledFault{fault: diagnet.NewFault(kind, region), since: since})
	}
	return out, nil
}

// activeAt returns the faults of schedule that are active at tick.
func activeAt(schedule []scheduledFault, tick int64) []netsim.Fault {
	var active []netsim.Fault
	for _, sf := range schedule {
		if tick >= sf.since {
			active = append(active, sf.fault)
		}
	}
	return active
}

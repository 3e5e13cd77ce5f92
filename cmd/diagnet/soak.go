package main

import (
	"fmt"
	"log"
	"time"

	"diagnet/internal/soak"
)

// runSoak runs the full-stack chaos soak harness (DESIGN.md §17): it
// boots a router, a replica fleet and the continual-learning loop in this
// process, drives a deterministic seeded schedule of chaos events under
// constant client load, and asserts the fleet's lifecycle invariants — no
// goroutine or fd growth, no client-visible 5xx, clean journal replay
// after injected crashes, exact federated counters.
//
// It exits 0 iff every invariant held. -out writes the full
// machine-readable summary (including the event schedule, so two runs
// with the same seed can be diffed for determinism).
func runSoak(args []string) error {
	fs := newFlags("soak", "")
	duration := fs.Duration("duration", 60*time.Second, "length of the chaos phase")
	seed := fs.Int64("seed", 1, "seed for the event schedule and client load")
	replicas := fs.Int("replicas", 3, "fleet size (replica 0 hosts the continual loop and is never killed)")
	workers := fs.Int("workers", 4, "concurrent client-load generators")
	step := fs.Duration("step", 250*time.Millisecond, "event schedule draw cadence")
	stateRoot := fs.String("state-root", "", "replica state directory (default: temp dir, removed on success)")
	out := fs.String("out", "", "write the JSON summary here")
	quiet := fs.Bool("q", false, "suppress per-event progress output")
	if err := parse(fs, args); err != nil {
		return err
	}
	log.SetFlags(0)

	cfg := soak.Config{
		Seed:          *seed,
		Duration:      *duration,
		Replicas:      *replicas,
		ClientWorkers: *workers,
		EventStep:     *step,
		StateRoot:     *stateRoot,
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}

	sum, err := soak.Run(cfg)
	if *out != "" {
		if werr := sum.WriteJSON(*out); werr != nil {
			log.Printf("soak: writing summary: %v", werr)
		} else {
			log.Printf("soak: summary written to %s", *out)
		}
	}
	printSummary(sum)
	if err != nil {
		if sum.LeakReport != "" {
			log.Printf("leak report:\n%s", sum.LeakReport)
		}
		return fmt.Errorf("FAIL: %w", err)
	}
	log.Printf("PASS: all invariants held")
	return nil
}

func printSummary(s *soak.Summary) {
	fmt.Printf("soak seed=%d replicas=%d duration=%s events=%d\n",
		s.Seed, s.Replicas, time.Duration(s.DurationMs)*time.Millisecond, len(s.Schedule))
	fmt.Printf("  requests: ok=%d 4xx=%d 429=%d 5xx=%d transport=%d\n",
		s.Requests["ok"], s.Requests["4xx"], s.Requests["429"], s.Requests["5xx"], s.Requests["transport"])
	fmt.Printf("  chaos: checkpoints=%d crash-injections=%d retrains-accepted=%d fleet-checks=%d\n",
		s.Checkpoints, s.CrashInjections, s.Retrains, s.FleetChecks)
	fmt.Printf("  federation: %d counters compared exactly\n", s.FederatedCounters)
	if n := len(s.GoroutineSamples); n > 0 {
		fmt.Printf("  goroutines: first=%d last=%d (of %d samples)\n",
			s.GoroutineSamples[0], s.GoroutineSamples[n-1], n)
	}
	if n := len(s.FDSamples); n > 0 {
		fmt.Printf("  fds: first=%d last=%d\n", s.FDSamples[0], s.FDSamples[n-1])
	}
	for _, v := range s.Violations {
		fmt.Printf("  VIOLATION: %s\n", v)
	}
}

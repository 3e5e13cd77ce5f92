package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"diagnet"
	"diagnet/internal/resilience"
)

// runLandmark runs a stateless landmark HTTP server (§III-A): the public
// measurement endpoint clients probe for RTT, throughput and statistics.
// Deploy one per vantage point.
func runLandmark(args []string) error {
	fs := newFlags("landmark", "")
	addr := fs.String("addr", ":8420", "listen address")
	maxTransfers := fs.Int("max-transfers", 0, "cap concurrent downloads/uploads (0 = unlimited)")
	if err := parse(fs, args); err != nil {
		return err
	}

	lm := diagnet.LandmarkServer{MaxConcurrentTransfers: *maxTransfers}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           lm.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	log.Printf("landmark serving on %s (endpoints: /ping /download /upload /stats)", *addr)
	return srv.ListenAndServe()
}

// runProbe measures one or more landmark servers from this client and
// prints the per-landmark metric vector — the live counterpart of the
// simulator's probing plane. Landmarks are probed concurrently with
// per-landmark retries; unreachable ones are reported instead of aborting
// the run (partial telemetry is the normal case, not an error), and the
// run fails only when every landmark does.
func runProbe(args []string) error {
	fs := newFlags("probe", "URL...")
	pings := fs.Int("pings", 7, "RTT samples per landmark")
	downloadKB := fs.Int64("download-kb", 2048, "download payload size (KiB)")
	uploadKB := fs.Int64("upload-kb", 1024, "upload payload size (KiB)")
	timeout := fs.Duration("timeout", 30*time.Second, "per-landmark timeout")
	newProber := multiProberFlags(fs)
	if err := parse(fs, args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return usagef("no landmark URL given (usage: diagnet probe [flags] URL...)")
	}

	prober := newProber(diagnet.ProberConfig{
		Pings:         *pings,
		DownloadBytes: *downloadKB << 10,
		UploadBytes:   *uploadKB << 10,
		Timeout:       *timeout,
	}, resilience.BreakerConfig{})
	results, partial := prober.ProbeAll(context.Background(), fs.Args())

	fmt.Printf("%-32s %10s %10s %12s %12s %9s\n", "landmark", "rtt(ms)", "jitter(ms)", "down(Mbps)", "up(Mbps)", "attempts")
	failed := 0
	for _, r := range results {
		if !r.OK() {
			failed++
			fmt.Printf("%-32s FAILED: %v\n", r.URL, r.Err)
			continue
		}
		m := r.Measurement
		fmt.Printf("%-32s %10.2f %10.2f %12.1f %12.1f %9d\n", r.URL, m.RTTMs, m.JitterMs, m.DownMbps, m.UpMbps, r.Attempts)
	}
	if partial {
		fmt.Fprintf(os.Stderr, "partial round: %d/%d landmarks answered\n", len(results)-failed, len(results))
	}
	if failed == len(results) {
		return errors.New("no landmark answered")
	}
	return nil
}

// multiProberFlags declares on fs the flags of the fault-tolerant prober
// that agent and probe share, and returns the constructor that reads them
// once fs is parsed.
func multiProberFlags(fs *flag.FlagSet) func(diagnet.ProberConfig, resilience.BreakerConfig) *diagnet.MultiProber {
	concurrency := fs.Int("probe-concurrency", 4, "landmarks probed in parallel")
	roundTimeout := fs.Duration("round-timeout", 60*time.Second, "deadline for one probing round across all landmarks")
	retryAttempts := fs.Int("retry-attempts", 2, "probe attempts per landmark per round")
	return func(cfg diagnet.ProberConfig, breaker resilience.BreakerConfig) *diagnet.MultiProber {
		return diagnet.NewMultiProber(diagnet.MultiProberConfig{
			Prober:        cfg,
			MaxConcurrent: *concurrency,
			RoundTimeout:  *roundTimeout,
			Retry:         resilience.RetryPolicy{MaxAttempts: *retryAttempts},
			Breaker:       breaker,
		})
	}
}

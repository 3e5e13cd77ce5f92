// Command diagnet-agent is the deployable client-side agent: it
// periodically probes live landmark servers (landmarkd instances), times a
// monitored service URL as its QoE signal, and submits the measurement
// snapshot to a diagnetd analysis service whenever the load time degrades
// against its own history.
//
// The probing plane is fault-tolerant: landmarks are probed concurrently
// with per-landmark retries and circuit breakers, and a round that loses
// some landmarks still produces a degraded-mode diagnosis from the
// surviving subset (DiagNet's LandPooling/ZeroMask extensibility makes the
// model accept any landmark list, §IV-B-a). Only when fewer than
// -min-landmarks survive is the round abandoned.
//
// Usage:
//
//	diagnet-agent -landmarks http://lm1:8420,http://lm2:8420 \
//	              -landmark-regions 2,4 \
//	              -service-url https://example.org \
//	              -analysis http://diagnetd:8421 \
//	              [-service-id 0] [-interval 30s] [-min-landmarks 1] \
//	              [-round-timeout 60s] [-probe-concurrency 4] \
//	              [-breaker-threshold 3] [-breaker-cooldown 2m] \
//	              [-retry-attempts 2] [-metrics 127.0.0.1:8422]
//	              [-state-dir state/] [-log-format text|json]
//
// With -state-dir, every degraded-round snapshot is journaled before the
// diagnosis upload and acknowledged only after diagnetd answers: a crash
// mid-upload (or a long analysis-service outage) leaves the snapshot on
// disk, and a restarted agent resubmits the pending backlog before its
// first probing round.
//
// -landmark-regions maps each probed landmark to its region index in the
// model's world, in the same order as -landmarks.
//
// -metrics serves GET /metrics on the given address: the process-wide
// telemetry snapshot (probing rounds, per-landmark latencies, breaker
// transitions) plus per-landmark health, as one JSON document.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"diagnet"
	"diagnet/internal/analysis"
	"diagnet/internal/landmark"
	"diagnet/internal/resilience"
	"diagnet/internal/tracing"
)

// fatal logs at error level and exits — slog has no Fatal.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(1)
}

func main() {
	landmarksFlag := flag.String("landmarks", "", "comma-separated landmark base URLs")
	regionsFlag := flag.String("landmark-regions", "", "comma-separated region indices, one per landmark")
	serviceURL := flag.String("service-url", "", "URL whose load time is the QoE signal")
	analysisURL := flag.String("analysis", "", "diagnetd base URL")
	serviceID := flag.Int("service-id", -1, "service ID for specialized-model routing")
	interval := flag.Duration("interval", 30*time.Second, "probing interval")
	degradeRatio := flag.Float64("degrade-ratio", 1.5, "QoE degradation threshold vs median load time")
	rounds := flag.Int("rounds", 0, "stop after N rounds (0 = run forever)")
	minLandmarks := flag.Int("min-landmarks", 1, "fewest surviving landmarks for a degraded-mode diagnosis")
	roundTimeout := flag.Duration("round-timeout", 60*time.Second, "deadline for one probing round across all landmarks")
	concurrency := flag.Int("probe-concurrency", 4, "landmarks probed in parallel")
	breakerThreshold := flag.Int("breaker-threshold", 3, "consecutive failures that open a landmark's circuit")
	breakerCooldown := flag.Duration("breaker-cooldown", 2*time.Minute, "open-circuit cooldown before a half-open ping")
	retryAttempts := flag.Int("retry-attempts", 2, "probe attempts per landmark per round")
	metricsAddr := flag.String("metrics", "", "serve GET /metrics (telemetry + landmark health) on this address (empty = off)")
	stateDir := flag.String("state-dir", "", "journal degraded-round snapshots here; pending uploads survive a crash (empty = off)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	flag.Parse()

	slog.SetDefault(tracing.NewLogger(os.Stderr, *logFormat))

	urls := splitNonEmpty(*landmarksFlag)
	if len(urls) == 0 || *serviceURL == "" || *analysisURL == "" {
		fatal("need -landmarks, -service-url and -analysis")
	}
	regions, err := parseInts(*regionsFlag)
	if err != nil || len(regions) != len(urls) {
		fatal("-landmark-regions must list one region index per landmark",
			"given", len(regions), "landmarks", len(urls))
	}
	if *minLandmarks < 1 || *minLandmarks > len(urls) {
		fatal("-min-landmarks out of range", "max", len(urls))
	}

	prober := diagnet.NewMultiProber(diagnet.MultiProberConfig{
		MaxConcurrent: *concurrency,
		RoundTimeout:  *roundTimeout,
		Retry:         resilience.RetryPolicy{MaxAttempts: *retryAttempts},
		Breaker: resilience.BreakerConfig{
			FailureThreshold: *breakerThreshold,
			Cooldown:         *breakerCooldown,
		},
	})
	client := analysis.NewClient(*analysisURL)
	if *metricsAddr != "" {
		go serveMetrics(*metricsAddr, prober)
	}
	var uploads *uploadLog
	if *stateDir != "" {
		var err error
		uploads, err = openUploadLog(*stateDir)
		if err != nil {
			fatal("state dir open failed", "dir", *stateDir, "err", err)
		}
		defer uploads.close()
		// Crash recovery: resubmit journaled uploads the last run never
		// got an answer for, before the first new probing round.
		uploads.resubmit(client)
	}
	var history []float64

	for round := 0; *rounds == 0 || round < *rounds; round++ {
		start := time.Now()
		// One root span per round ties the whole pipeline together: the
		// probe.round and per-landmark child spans, and — when the round
		// escalates — the Diagnose upload, whose traceparent header makes
		// the server's spans part of the same trace.
		ctx, span := tracing.StartSpan(context.Background(), "agent.round")
		span.SetAttr("round", round)
		snap, err := probeRound(ctx, prober, urls, regions, *minLandmarks)
		if err != nil {
			slog.WarnContext(ctx, "round abandoned", "round", round, "err", err)
			span.SetError(err)
			span.End()
			sleepRemainder(start, *interval)
			continue
		}
		if len(snap.Lost) > 0 {
			slog.WarnContext(ctx, "degraded probing plane", "round", round,
				"lost", len(snap.Lost), "landmarks", len(urls),
				"lost_urls", strings.Join(snap.Lost, ","))
		}

		loadMs, err := timePageLoad(*serviceURL)
		if err != nil {
			slog.WarnContext(ctx, "QoE fetch failed", "err", err)
			span.SetError(err)
			span.End()
			sleepRemainder(start, *interval)
			continue
		}
		degraded := false
		if len(history) >= 5 {
			if med := median(history); loadMs > med**degradeRatio {
				degraded = true
			}
		}
		span.SetAttr("degraded", degraded)
		slog.InfoContext(ctx, "round complete", "round", round,
			"probed", len(snap.Regions), "landmarks", len(urls),
			"page_load_ms", loadMs, "degraded", degraded)

		if degraded {
			req := &analysis.DiagnoseRequest{
				ServiceID: *serviceID,
				Landmarks: snap.Regions,
				Features:  snap.Features,
				TopK:      5,
			}
			// Journal before uploading: the snapshot survives a crash (or
			// analysis outage) between here and the acknowledgement below.
			var seq uint64
			journaled := false
			if uploads != nil {
				if seq, err = uploads.append(req); err != nil {
					slog.WarnContext(ctx, "upload journal append failed", "err", err)
				} else {
					journaled = true
				}
			}
			resp, err := client.Diagnose(ctx, req)
			if err != nil {
				slog.ErrorContext(ctx, "diagnosis failed", "err", err,
					"journaled", journaled)
				span.SetError(err)
			} else {
				if journaled {
					if err := uploads.ack(seq); err != nil {
						slog.WarnContext(ctx, "upload journal ack failed", "err", err)
					}
				}
				slog.InfoContext(ctx, "diagnosis", "family", resp.Family)
				for i, c := range resp.Causes {
					slog.InfoContext(ctx, "cause", "rank", i+1, "name", c.Name,
						"family", c.Family, "score", c.Score)
				}
			}
		} else {
			history = append(history, loadMs)
			if len(history) > 96 {
				history = history[1:]
			}
		}
		span.End()
		sleepRemainder(start, *interval)
	}
}

// roundSnapshot is the surviving-subset view of one probing round.
type roundSnapshot struct {
	// Regions lists the region indices of the landmarks that answered,
	// in probing order — the Landmarks field of a DiagnoseRequest.
	Regions []int
	// Features is the feature vector under that (possibly reduced) layout.
	Features []float64
	// Lost names the landmark URLs that produced no measurement.
	Lost []string
}

// probeRound probes all landmarks and assembles the degraded-mode feature
// vector from whatever subset survived. It fails only when fewer than
// minLandmarks landmarks answered.
func probeRound(ctx context.Context, prober *landmark.MultiProber, urls []string, regions []int, minLandmarks int) (*roundSnapshot, error) {
	results, _ := prober.ProbeAll(ctx, urls)
	snap := &roundSnapshot{}
	var ms []landmark.Measurement
	for i, r := range results {
		if r.OK() {
			ms = append(ms, r.Measurement)
			snap.Regions = append(snap.Regions, regions[i])
		} else {
			snap.Lost = append(snap.Lost, urls[i])
		}
	}
	if len(ms) < minLandmarks {
		return nil, fmt.Errorf("only %d/%d landmarks answered (min %d); skipping round",
			len(ms), len(urls), minLandmarks)
	}
	snap.Features = landmark.Features(ms, nil, landmark.LocalMetrics{})
	return snap, nil
}

// serveMetrics exposes the telemetry export and per-landmark health as
// one JSON document on GET /metrics.
func serveMetrics(addr string, prober *landmark.MultiProber) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Metrics   diagnet.MetricsExport             `json:"metrics"`
			Landmarks map[string]diagnet.LandmarkHealth `json:"landmarks"`
		}{diagnet.Metrics(), prober.Health()})
	})
	slog.Info("metrics listening", "url", "http://"+addr+"/metrics")
	err := http.ListenAndServe(addr, mux)
	slog.Error("metrics listener exited", "err", err)
}

// timePageLoad fetches a URL and returns the wall-clock duration in ms.
func timePageLoad(url string) (float64, error) {
	start := time.Now()
	resp, err := http.Get(url)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode >= 400 {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	return float64(time.Since(start).Microseconds()) / 1000, nil
}

func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return sorted[len(sorted)/2]
}

func splitNonEmpty(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(s string) ([]int, error) {
	var out []int
	for _, p := range splitNonEmpty(s) {
		v, err := strconv.Atoi(p)
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func sleepRemainder(start time.Time, interval time.Duration) {
	if rest := interval - time.Since(start); rest > 0 {
		time.Sleep(rest)
	}
}

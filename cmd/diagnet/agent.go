package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"diagnet"
	"diagnet/internal/analysis"
	"diagnet/internal/collector"
	"diagnet/internal/durable"
	"diagnet/internal/resilience"
	"diagnet/internal/telemetry"
	"diagnet/internal/tracing"
)

// runAgent is the deployable client-side agent: a collector.Agent over a
// collector.LiveSource. Each round probes live landmark servers (diagnet
// landmark instances) and times a monitored service URL as its QoE
// signal; the agent submits the round's measurements to a diagnetd
// analysis service whenever the load time degrades against its own
// history (collector's rule, -degrade-ratio × the median nominal load +
// 40 ms).
//
// The probing plane is fault-tolerant: landmarks are probed concurrently
// with per-landmark retries and circuit breakers, and a round that loses
// some landmarks still produces a degraded-mode diagnosis from the
// surviving subset. Only when fewer than -min-landmarks survive is the
// round abandoned.
//
//	diagnet agent -landmarks http://lm1:8420,http://lm2:8420 \
//	              -landmark-regions 2,4 \
//	              -service-url https://example.org \
//	              -analysis http://diagnetd:8421 [flags]
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
// telemetry snapshot (agent and probing rounds, per-landmark latencies,
// breaker transitions) plus per-landmark health, as one JSON document.
func runAgent(args []string) error {
	fs := newFlags("agent", "")
	landmarksFlag := fs.String("landmarks", "", "comma-separated landmark base URLs")
	regionsFlag := fs.String("landmark-regions", "", "comma-separated region indices, one per landmark")
	serviceURL := fs.String("service-url", "", "URL whose load time is the QoE signal")
	analysisURL := fs.String("analysis", "", "diagnetd base URL")
	serviceID := fs.Int("service-id", -1, "service ID for specialized-model routing")
	interval := fs.Duration("interval", 30*time.Second, "probing interval")
	degradeRatio := fs.Float64("degrade-ratio", collector.DegradeRatio, "QoE degradation threshold vs median load time")
	rounds := fs.Int("rounds", 0, "stop after N rounds (0 = run forever)")
	minLandmarks := fs.Int("min-landmarks", 1, "fewest surviving landmarks for a degraded-mode diagnosis")
	newProber := multiProberFlags(fs)
	breakerThreshold := fs.Int("breaker-threshold", 3, "consecutive failures that open a landmark's circuit")
	breakerCooldown := fs.Duration("breaker-cooldown", 2*time.Minute, "open-circuit cooldown before a half-open ping")
	metricsAddr := fs.String("metrics", "", "serve GET /metrics (telemetry + landmark health) on this address (empty = off)")
	stateDir := fs.String("state-dir", "", "journal degraded-round snapshots here; pending uploads survive a crash (empty = off)")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	if err := parse(fs, args); err != nil {
		return err
	}

	slog.SetDefault(tracing.NewLogger(os.Stderr, *logFormat))

	urls := splitNonEmpty(*landmarksFlag)
	if len(urls) == 0 || *serviceURL == "" || *analysisURL == "" {
		return usagef("need -landmarks, -service-url and -analysis")
	}
	regions, err := parseInts(*regionsFlag)
	if err != nil || len(regions) != len(urls) {
		return usagef("-landmark-regions must list one region index per landmark (%d given for %d landmarks)",
			len(regions), len(urls))
	}
	if *minLandmarks < 1 || *minLandmarks > len(urls) {
		return usagef("-min-landmarks out of range [1, %d]", len(urls))
	}

	prober := newProber(diagnet.ProberConfig{}, resilience.BreakerConfig{
		FailureThreshold: *breakerThreshold,
		Cooldown:         *breakerCooldown,
	})
	client := analysis.NewClient(*analysisURL)
	if *metricsAddr != "" {
		go serveMetrics(*metricsAddr, prober)
	}
	var uploads *uploadLog
	if *stateDir != "" {
		uploads, err = openUploadLog(*stateDir)
		if err != nil {
			return fmt.Errorf("state dir %s: %w", *stateDir, err)
		}
		defer uploads.close()
		// Crash recovery: resubmit journaled uploads the last run never
		// got an answer for, before the first new probing round.
		uploads.resubmit(client)
	}
	agent := collector.NewAgent(&collector.LiveSource{
		Prober: prober, URLs: urls, Regions: regions,
		ServiceURL: *serviceURL, MinLandmarks: *minLandmarks,
	}, *degradeRatio)

	for round := 0; *rounds == 0 || round < *rounds; round++ {
		start := time.Now()
		// One root span per round ties the whole pipeline together: the
		// probe.round and per-landmark child spans, and — when the round
		// escalates — the Diagnose upload, whose traceparent header makes
		// the server's spans part of the same trace.
		ctx, span := tracing.StartSpan(context.Background(), "agent.round")
		span.SetAttr("round", round)
		r, degraded, err := agent.Step(ctx, int64(round))
		if err != nil {
			slog.WarnContext(ctx, "round abandoned", "round", round, "err", err)
			span.SetError(err)
		} else {
			if len(r.Lost) > 0 {
				slog.WarnContext(ctx, "degraded probing plane", "round", round,
					"lost", len(r.Lost), "landmarks", len(urls),
					"lost_urls", strings.Join(r.Lost, ","))
			}
			span.SetAttr("degraded", degraded)
			slog.InfoContext(ctx, "round complete", "round", round,
				"probed", len(r.Landmarks), "landmarks", len(urls),
				"page_load_ms", r.LoadMs, "degraded", degraded)
			if degraded {
				diagnose(ctx, span, client, uploads, &analysis.DiagnoseRequest{
					ServiceID: *serviceID,
					Landmarks: r.Landmarks,
					Features:  r.Features,
					TopK:      5,
				})
			}
		}
		span.End()
		time.Sleep(*interval - time.Since(start)) // returns at once when the round overran
	}
	return nil
}

// diagnose uploads one degraded round and logs the ranked causes. With an
// upload journal, the request is journaled first and acknowledged only
// once diagnetd answers: it survives a crash (or analysis outage) between
// the two.
func diagnose(ctx context.Context, span *tracing.Span, client *analysis.Client, uploads *uploadLog, req *analysis.DiagnoseRequest) {
	var seq uint64
	journaled := false
	if uploads != nil {
		var err error
		if seq, err = uploads.append(req); err != nil {
			slog.WarnContext(ctx, "upload journal append failed", "err", err)
		} else {
			journaled = true
		}
	}
	resp, err := client.Diagnose(ctx, req)
	if err != nil {
		slog.ErrorContext(ctx, "diagnosis failed", "err", err, "journaled", journaled)
		span.SetError(err)
		return
	}
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

// serveMetrics exposes the telemetry export and per-landmark health as
// one JSON document on GET /metrics.
func serveMetrics(addr string, prober *diagnet.MultiProber) {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Metrics   telemetry.Export                  `json:"metrics"`
			Landmarks map[string]diagnet.LandmarkHealth `json:"landmarks"`
		}{telemetry.Default().Export(), prober.Health()})
	})
	slog.Info("metrics listening", "url", "http://"+addr+"/metrics")
	err := http.ListenAndServe(addr, mux)
	slog.Error("metrics listener exited", "err", err)
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

// uploadLog journals degraded-round diagnosis requests (the agent's
// in-flight state) so a crash between "QoE degraded" and "diagnetd
// answered" cannot lose the snapshot. Entries are appended before the
// upload and acknowledged after a successful answer; a restarted agent
// resubmits the unacknowledged backlog before its first probing round.
type uploadLog struct {
	q *durable.Queue
}

// openUploadLog opens the journal under stateDir/uploads.
func openUploadLog(stateDir string) (*uploadLog, error) {
	q, err := durable.OpenQueue(filepath.Join(stateDir, "uploads"), durable.Options{
		SegmentBytes: 256 << 10,
	})
	if err != nil {
		return nil, err
	}
	return &uploadLog{q: q}, nil
}

// append journals one request, returning its ack handle.
func (l *uploadLog) append(req *analysis.DiagnoseRequest) (uint64, error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	return l.q.Append(payload)
}

// ack marks a request as answered.
func (l *uploadLog) ack(seq uint64) error { return l.q.Ack(seq) }

// resubmit replays the unacknowledged backlog through the analysis
// client. Requests that fail again (service still down, or the request
// is no longer valid against the current model) stay journaled for the
// next restart — except undecodable ones, which are dropped.
func (l *uploadLog) resubmit(client *analysis.Client) {
	pending := l.q.Pending()
	if len(pending) == 0 {
		return
	}
	ctx, span := tracing.StartSpan(context.Background(), "agent.resubmit")
	span.SetAttr("pending", len(pending))
	defer span.End()
	slog.InfoContext(ctx, "resubmitting journaled diagnosis uploads", "pending", len(pending))
	for _, item := range pending {
		var req analysis.DiagnoseRequest
		if err := json.Unmarshal(item.Payload, &req); err != nil {
			slog.WarnContext(ctx, "dropping undecodable journaled upload", "seq", item.Seq, "err", err)
			l.q.Ack(item.Seq)
			continue
		}
		subCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
		resp, err := client.Diagnose(subCtx, &req)
		cancel()
		if err != nil {
			slog.WarnContext(ctx, "resubmit failed; keeping journaled", "seq", item.Seq, "err", err)
			continue
		}
		slog.InfoContext(ctx, "recovered diagnosis", "seq", item.Seq, "family", resp.Family)
		if err := l.q.Ack(item.Seq); err != nil {
			slog.WarnContext(ctx, "recovered upload ack failed", "seq", item.Seq, "err", err)
		}
	}
	// Shed the acked prefix so the journal stays proportional to the
	// (bounded) backlog, not the agent's lifetime.
	if err := l.q.Compact(); err != nil {
		slog.WarnContext(ctx, "upload journal compaction failed", "err", err)
	}
}

// close syncs and closes the journal.
func (l *uploadLog) close() error { return l.q.Close() }

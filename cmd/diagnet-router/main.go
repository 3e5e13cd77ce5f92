// Command diagnet-router fronts a fleet of diagnetd replicas with
// health- and load-aware placement, failover, scatter-gather batches and
// honored backpressure (DESIGN.md §14).
//
// Usage:
//
//	diagnet-router -replicas 'http://10.0.0.1:8421,http://10.0.0.2:8421,http://10.0.0.3:8421'
//	               [-addr :8420] [-health-interval 500ms] [-attempt-timeout 30s]
//	               [-federate-interval 15s] [-slo-target 0.999] [-slo-latency-ms 250]
//	               [-log-format text|json] [-trace=true]
//
// API: POST /v1/diagnose (least-loaded ready replica, failed over one
// replica at a time) and
// /v1/diagnose-batch (scatter-gathered across ready replicas) and GET
// /v1/model are proxied to the replicas; the router's own are /v1/metrics
// (JSON), /v1/replicas (per-replica health/breaker/load),
// /v1/fleet/metrics (the exactly-merged federated view), /v1/slo (404
// unless -slo-target), /healthz and /readyz (503 until a replica is
// ready). The router keeps nothing on disk.
//
// -attempt-timeout bounds one replica attempt: a replica that stalls but
// keeps its connection holds a request that long before it fails over.
// -federate-interval, -slo-target and -slo-latency-ms configure the fleet observability plane (DESIGN.md §16,
// README "Fleet observability").
package main

import (
	"context"
	"flag"
	"log/slog"
	"os"
	"strings"
	"time"

	"diagnet/internal/cluster"
	"diagnet/internal/obs"
	"diagnet/internal/tracing"
)

func main() {
	var cfg cluster.Config
	addr := flag.String("addr", ":8420", "listen address")
	replicas := flag.String("replicas", "", "comma-separated replica base URLs (required)")
	flag.DurationVar(&cfg.HealthInterval, "health-interval", 500*time.Millisecond, "replica /readyz sweep period")
	flag.DurationVar(&cfg.AttemptTimeout, "attempt-timeout", 30*time.Second, "per-replica attempt timeout")
	flag.DurationVar(&cfg.Obs.FederateInterval, "federate-interval", 15*time.Second, "replica /v1/metrics scrape period for the federated fleet view (0 = federation off)")
	flag.Float64Var(&cfg.Obs.SLOTarget, "slo-target", 0, "SLO goal over federated /v1/diagnose metrics, e.g. 0.999 (0 = SLO engine off)")
	flag.Float64Var(&cfg.Obs.SLOLatencyMs, "slo-latency-ms", 0, "latency objective threshold in ms; use a latency-bucket bound for an exact split (0 = availability objective only)")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	traceOn := flag.Bool("trace", true, "record route/attempt spans")
	flag.Parse()

	slog.SetDefault(tracing.NewLogger(os.Stderr, *logFormat))
	tracing.SetEnabled(*traceOn)

	var urls []string
	for _, u := range strings.Split(*replicas, ",") {
		if u = strings.TrimSpace(u); u != "" {
			urls = append(urls, strings.TrimRight(u, "/"))
		}
	}
	if len(urls) == 0 {
		slog.Error("no replicas: pass -replicas 'http://host:port,...'")
		os.Exit(1)
	}

	rt := cluster.NewRouter(urls, cfg)
	slog.Info("router pool built", "replicas", len(urls),
		"federate_interval", cfg.Obs.FederateInterval, "slo_target", cfg.Obs.SLOTarget)

	slog.Info("router listening", "addr", *addr)
	err := obs.ListenAndServe(context.Background(), *addr, rt)
	rt.Close()
	if err != nil {
		slog.Error("http server failed", "err", err)
		os.Exit(1)
	}
}

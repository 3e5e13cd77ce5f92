// Command diagnetd serves the root-cause analysis service (Fig. 1): it
// loads one or more model versions trained by diagnet-train and answers
// diagnosis requests over HTTP through the batched serving engine.
//
// Usage:
//
//	diagnetd -model model.gob [-specialized 'model.svc0.gob,model.svc1.gob'] [-addr :8421]
//	         [-model-dir models/ [-serve-version v2]]
//	         [-state-dir state/ [-fsync always|batch|never]]
//	         [-continual [-retrain-interval 1h] [-promote-min-gain 0]]
//	         [-batch-max 32] [-queue-depth 256] [-workers 0]
//	         [-pprof 127.0.0.1:6060] [-log-format text|json]
//	         [-trace=true] [-trace-sample 1.0] [-trace-slow 250ms]
//
// API: the routes of analysis.Server.Handler — POST /v1/diagnose{,-batch},
// the /v1/models rollout admin, /v1/continual (404 unless -continual),
// /v1/metrics (JSON), /v1/traces, /healthz and /readyz (503 until
// the boot below completes, and again while draining).
//
// The boot and teardown order is analysis.Open / Server.Close (DESIGN.md
// §18). -model takes a bare model or a diagnet-train -bundle file and
// serves it as version "boot"; with -model-dir every *.gob is a version
// named after its file and the lexically last (or -serve-version) boots,
// so date-stamped names serve the newest; POST /v1/models loads, promotes
// (warm-up, then an atomic swap under live traffic) and rolls back at
// runtime (§11). With -state-dir every promotion, rollback and
// specialization is journaled before it is acknowledged and a restart
// recovers the exact serving version before /readyz opens; -fsync picks
// the journal durability; SIGHUP checkpoints and rotates it (§13).
// -continual closes the learning loop — served diagnoses are buffered,
// drift, -retrain-interval or POST /v1/continual/retrain retrains a
// candidate that is compared with the incumbent on replayed served
// requests and promoted through a gate (-promote-min-gain) under an
// auto-rollback watchdog —
// with its state under <state-dir>/continual (§15). Every /v1 request
// gets a trace, continued from an incoming traceparent and echoed in
// X-Trace-Id; -trace-sample head-samples while slow (> -trace-slow) and
// error traces are always kept, and logs carry trace_id/span_id (§12).
//
// -pprof serves net/http/pprof on a separate listener (keep it on a
// loopback or otherwise private address; it is intentionally not exposed
// on the public API port) and is the way to profile a replica:
// go tool pprof http://127.0.0.1:6060/debug/pprof/profile?seconds=5. It
// shuts down and is awaited with the API listener.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served by -pprof only
	"os"
	"os/signal"
	"strings"
	"syscall"

	"diagnet/internal/analysis"
	"diagnet/internal/durable"
	"diagnet/internal/obs"
	"diagnet/internal/tracing"
)

func main() {
	if err := run(context.Background(), os.Args[1:]); err != nil {
		slog.Error("diagnetd failed", "err", err)
		os.Exit(1)
	}
}

// run is the whole daemon: flags → analysis.Options → analysis.Open →
// serve until SIGINT/SIGTERM or ctx is done → Close. The boot and
// teardown order live in internal/analysis (DESIGN.md "Replica
// lifecycle"); only process-global concerns stay here.
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	var opt analysis.Options
	addr := fs.String("addr", ":8421", "listen address")
	fs.StringVar(&opt.ModelPath, "model", "model.gob", "general model file")
	specialized := fs.String("specialized", "", "comma-separated specialized model files")
	fs.StringVar(&opt.ModelDir, "model-dir", "", "directory of *.gob model versions; overrides -model and enables POST /v1/models load")
	fs.StringVar(&opt.ServeVersion, "serve-version", "", "version to promote at boot (default: lexically last in -model-dir)")
	fs.StringVar(&opt.StateDir, "state-dir", "", "durable state directory: journal + checkpoints of the model lifecycle (empty = in-memory only)")
	fsyncMode := fs.String("fsync", "always", "state journal durability: always, batch or never")
	fs.IntVar(&opt.Serving.BatchMax, "batch-max", 32, "micro-batch size cap for fused inference")
	fs.IntVar(&opt.Serving.QueueDepth, "queue-depth", 256, "bounded admission queue; overflow is shed with 429")
	fs.IntVar(&opt.Serving.Workers, "workers", 0, "inference workers (0 = GOMAXPROCS)")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
	logFormat := fs.String("log-format", "text", "log output format: text or json")
	traceOn := fs.Bool("trace", true, "record request traces (GET /v1/traces)")
	traceSample := fs.Float64("trace-sample", 1, "head-sampling rate for normal traces in [0,1]; slow and error traces are always kept")
	traceSlow := fs.Duration("trace-slow", 0, "latency above which a trace is always kept (0 = default 250ms)")
	fs.BoolVar(&opt.Continual, "continual", false, "close the learning loop: buffer live samples, retrain on drift, shadow-evaluate and gate-promote candidates")
	fs.DurationVar(&opt.Loop.RetrainInterval, "retrain-interval", 0, "also retrain on this timer (0 = drift and manual triggers only)")
	fs.Float64Var(&opt.Loop.Gate.MinGain, "promote-min-gain", 0, "required labeled-holdout accuracy gain (candidate − incumbent) before promotion; negative permits regressions")
	fs.Parse(args) // exits: 0 on -h, 2 on a bad command line

	slog.SetDefault(tracing.NewLogger(os.Stderr, *logFormat))
	rate := *traceSample
	if rate == 0 {
		rate = -1 // flag 0 means "sample nothing"; Config reads 0 as "use default"
	}
	tracing.Configure(tracing.Config{SampleRate: rate, SlowThreshold: *traceSlow})
	tracing.SetEnabled(*traceOn)

	var err error
	if opt.Fsync, err = durable.ParseFsyncPolicy(*fsyncMode); err != nil {
		return fmt.Errorf("bad -fsync: %w", err)
	}
	opt.Store.Fsync, opt.Loop.Fsync = opt.Fsync, opt.Fsync
	opt.Trainer.Logf = func(format string, args ...any) { slog.Info(fmt.Sprintf(format, args...)) }
	for _, path := range strings.Split(*specialized, ",") {
		if path = strings.TrimSpace(path); path != "" {
			opt.Specialized = append(opt.Specialized, path)
		}
	}
	srv, err := analysis.Open(opt)
	if err != nil {
		return err
	}

	// The pprof listener stops with the API listener, whichever way that
	// one ends, and run awaits it.
	ctx, stopPprof := context.WithCancel(ctx)
	pprofDone := make(chan struct{})
	go func() {
		defer close(pprofDone)
		if *pprofAddr == "" {
			return
		}
		slog.Info("pprof listening", "url", "http://"+*pprofAddr+"/debug/pprof/")
		if err := obs.ListenAndServe(ctx, *pprofAddr, http.DefaultServeMux); err != nil {
			slog.Error("pprof listener failed", "err", err)
		}
	}()
	// SIGHUP forces an immediate checkpoint + journal segment rotation.
	hup, hupDone := make(chan os.Signal, 1), make(chan struct{})
	if opt.StateDir != "" {
		signal.Notify(hup, syscall.SIGHUP)
	}
	go func() {
		defer close(hupDone)
		for range hup {
			if _, err := srv.Checkpoint(); err != nil {
				slog.Error("SIGHUP checkpoint failed", "err", err)
			}
		}
	}()

	// Stop accepting HTTP first, then Close drains the engine so queued
	// and in-flight diagnoses finish (clients retry transient failures,
	// but a clean drain avoids failing them at all).
	slog.Info("analysis service listening", "addr", *addr)
	err = obs.ListenAndServe(ctx, *addr, srv.Handler())
	stopPprof()
	<-pprofDone
	signal.Stop(hup)
	close(hup)
	<-hupDone
	return errors.Join(err, srv.Close())
}

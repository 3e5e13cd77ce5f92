// Tracing: follow one degraded-QoE diagnosis end to end as a request
// trace — an agent-side round span is propagated to the analysis service
// over the W3C traceparent header, the service records route, queue-wait,
// micro-batch and core pipeline stage spans under the same trace ID, and
// the finished trace is fetched back from GET /v1/traces/{id} and printed
// as a span tree. Along the way the shared slog handler stamps log lines
// with the trace ID, and the /v1/metrics latency exemplar points at the
// same trace — logs, metrics and traces joined by one key.
//
//	go run ./examples/tracing
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"time"

	"diagnet"
	"diagnet/internal/analysis"
)

// Size knobs, package-level so the smoke test can shrink them.
var (
	nominalSamples = 600
	faultSamples   = 1400
	filters        = 8
	hidden         = []int{48, 24}
	epochs         = 8
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// spanNode mirrors the /v1/traces/{id} span-tree shape.
type spanNode struct {
	Name       string     `json:"name"`
	DurationMs float64    `json:"duration_ms"`
	Error      string     `json:"error,omitempty"`
	Children   []spanNode `json:"children"`
}

func run(out io.Writer) error {
	// Every trace is kept for this walkthrough: full head sampling, and a
	// 1ns slow threshold so the diagnosis counts as a "slow" trace — the
	// class that bypasses sampling into the always-keep ring in production.
	diagnet.ConfigureTracing(diagnet.TracingConfig{SampleRate: 1, SlowThreshold: time.Nanosecond})

	// 1. Train a small general model and serve it as the analysis service.
	world := diagnet.NewWorld(diagnet.WorldConfig{Seed: 1})
	data := diagnet.Generate(diagnet.GenConfig{
		World: world, NominalSamples: nominalSamples, FaultSamples: faultSamples, Seed: 11,
	})
	train, test := data.Split(0.8, diagnet.HiddenLandmarks(), 13)
	cfg := diagnet.DefaultConfig()
	cfg.Filters = filters
	cfg.Hidden = hidden
	cfg.Epochs = epochs
	model := diagnet.TrainGeneral(train, diagnet.KnownRegions(), cfg).Model
	srv := analysis.NewServer(model)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()
	client := analysis.NewClient(ts.URL)
	fmt.Fprintln(out, "analysis service on", ts.URL)

	deg := test.Degraded()
	if deg.Len() == 0 {
		return fmt.Errorf("no degraded samples")
	}
	sample := &deg.Samples[0]

	// 2. The agent side of a degraded round: open a root span, log under
	// its context (the shared handler stamps trace_id/span_id), and submit
	// the diagnosis — the client injects the traceparent header, so the
	// service's spans join this trace.
	logger := slog.New(diagnet.NewLogHandler(out, "text"))
	ctx, span := diagnet.StartSpan(context.Background(), "agent.round")
	logger.InfoContext(ctx, "QoE degraded, submitting measurement snapshot")
	resp, err := client.Diagnose(ctx, &diagnet.DiagnoseRequest{
		ServiceID: sample.Service,
		Landmarks: test.Layout.Landmarks,
		Features:  sample.Features,
		TopK:      3,
	})
	if err != nil {
		return err
	}
	traceID := span.TraceID()
	span.End()
	fmt.Fprintf(out, "diagnosis: family=%s, top cause %s\n", resp.Family, resp.Causes[0].Name)

	// 3. Fetch the finished trace back over the same API an operator would
	// use. The trace finalizes when its root spans end, racing the HTTP
	// response by a hair — poll briefly until the server-side spans appear.
	tree, err := fetchTrace(ts.URL, traceID)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "trace %s:\n", traceID)
	printTree(out, tree, 1)

	// 4. Close the loop from metrics: the diagnose route's latency
	// histogram carries an exemplar naming the trace behind its tail.
	metrics := diagnet.Metrics()
	if h, ok := metrics.Histogram("http.diagnose.latency_ms"); ok && h.Exemplar != nil {
		fmt.Fprintf(out, "p99 exemplar: %.2f ms -> trace %s\n", h.Exemplar.Value, h.Exemplar.TraceID)
	}
	return nil
}

// fetchTrace polls GET /v1/traces/{id} until the trace contains the
// server-side core.diagnose span.
func fetchTrace(baseURL, id string) ([]spanNode, error) {
	var tree struct {
		Spans []spanNode `json:"spans"`
	}
	deadline := time.Now().Add(3 * time.Second)
	for {
		r, err := http.Get(baseURL + "/v1/traces/" + id)
		if err != nil {
			return nil, err
		}
		if r.StatusCode == http.StatusOK {
			err = json.NewDecoder(r.Body).Decode(&tree)
			r.Body.Close()
			if err != nil {
				return nil, err
			}
			if hasSpan(tree.Spans, "core.diagnose") {
				return tree.Spans, nil
			}
		} else {
			io.Copy(io.Discard, r.Body)
			r.Body.Close()
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("trace %s incomplete after 3s", id)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func hasSpan(nodes []spanNode, name string) bool {
	for _, n := range nodes {
		if n.Name == name || hasSpan(n.Children, name) {
			return true
		}
	}
	return false
}

func printTree(out io.Writer, nodes []spanNode, depth int) {
	for _, n := range nodes {
		suffix := ""
		if n.Error != "" {
			suffix = " ERROR: " + n.Error
		}
		fmt.Fprintf(out, "%s%s (%.2f ms)%s\n", strings.Repeat("  ", depth), n.Name, n.DurationMs, suffix)
		printTree(out, n.Children, depth+1)
	}
}

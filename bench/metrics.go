package main

import "encoding/json"

// This file is the benchmark's contract in code: the workloads, the gated
// end-to-end metrics with their regression bounds, and the reported
// per-layer metrics. BENCHMARK.json is generated from these tables
// (`-manifest`), and the smoke test fails when the two drift apart.

// metricDef names one metric. Bound is the share of the parent's median by
// which the metric may worsen before a change counts as a regression; only
// end-to-end metrics carry one.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// reported is the value a run reports for a metric measured once per
// repetition: the quartile on the metric's good side. The machine is a few
// cores of a shared host, and what else runs there only ever slows a
// repetition down, for seconds at a time; over a run the median follows those
// seconds, while the good-side quartile stays with the repetitions that ran
// undisturbed as long as a quarter of them did. It is the same rule on both
// sides of any comparison.
func (m metricDef) reported(xs []float64) float64 {
	if m.Better == "higher" {
		return quantile(xs, 0.75)
	}
	return quantile(xs, 0.25)
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const (
	wInteractive = "interactive_routed"
	wBulkUniform = "bulk_uniform_direct"
	wBulkMixed   = "bulk_mixed_routed"
	wRetrain     = "retrain"
)

var workloads = []workloadDef{
	{wInteractive, "open loop at 150 req/s, one sample per POST through router and replicas: batches of ~1, so per-request costs (JSON, two HTTP hops, hedging, batch wait, one un-fused pass) dominate"},
	{wBulkUniform, "closed loop, 64 same-service same-layout samples per POST straight at one replica: full fused micro-batches, nn/mat matrix-matrix passes dominate, router bypassed"},
	{wBulkMixed, "closed loop, 64 samples over 12 services x 3 layouts per POST through the router: micro-batches fragment, 13 networks per worker, router scatter-gathers"},
	{wRetrain, "offline rounds of a one-epoch TrainGeneral on a third of the training split, then un-sessioned Model.Diagnose scoring: the write side of nn/mat/forest that serving only reads"},
}

// runSeconds is how long the driver lets one run measure.
const runSeconds = 22

// The bounds follow the spreads measured on the reference machine (a
// shared 2-core VM): between ten runs its speed drifts by a tenth to a
// fifth, and every wall- or CPU-time metric drifts with it, so those get
// the widest bound the contract allows; allocation, live heap and recall
// do not depend on machine speed and are held tight. A claim of a gain is
// made with alternating pairs of runs (see README.md), never with one run
// against these bounds.
//
// Training time is gated through throughput_per_s on retrain (samples ×
// epochs per second of TrainGeneral); the wall times of TrainGeneral and
// Specialize are the per-layer rows core.train_general.s and
// core.specialize.s. As end-to-end metrics of their own they would be
// single-shot fixture timings on the three serving workloads, the noisiest
// numbers of a run, without gating anything more.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"throughput_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_diagnosis", "ms", "lower", 0.25},
	{"alloc_kb_per_diagnosis", "KiB", "lower", 0.10},
	{"live_heap_mb", "MB", "lower", 0.05},
	{"recall_at_1", "ratio", "higher", 0.01},
	{"recall_at_5", "ratio", "higher", 0.01},
}

func lower(unit string, names ...string) []metricDef {
	return defs(unit, "lower", names)
}

func higher(unit string, names ...string) []metricDef {
	return defs(unit, "higher", names)
}

func defs(unit, better string, names []string) []metricDef {
	out := make([]metricDef, len(names))
	for i, n := range names {
		out[i] = metricDef{Name: n, Unit: unit, Better: better}
	}
	return out
}

var perLayer = concat(
	// client: the generator's own view of the untraced window.
	higher("count", "client.sent", "client.ok"),
	lower("count", "client.failed", "client.mismatched", "client.recall_excluded"),
	lower("ms", "client.latency_p99_ms", "client.latency_max_ms"),
	lower("ratio", "client.slo_miss_share"),
	lower("ms", "client.schedule_lag_p99_ms"),

	lower("us", "analysis.encode_request.us", "analysis.decode_request.us",
		"analysis.encode_response.us", "analysis.decode_response.us",
		"analysis.diagnose.us", "analysis.diagnose.self_us",
		"analysis.http.us", "analysis.http.self_us"),
	lower("B", "analysis.encode_request.alloc_b", "analysis.decode_request.alloc_b",
		"analysis.http.alloc_b", "analysis.request_bytes", "analysis.response_bytes"),

	lower("us", "cluster.route.us", "cluster.route.self_us"),
	lower("B", "cluster.route.alloc_b"),
	lower("ratio", "cluster.hedges_per_request"),
	higher("ratio", "cluster.hedge_win_share"),
	lower("count", "cluster.losers_canceled", "cluster.failovers", "cluster.backpressure"),
	lower("count", "cluster.scatter_chunks_mean"),

	lower("us", "serving.submit.us", "serving.submit.self_us"),
	lower("B", "serving.submit.alloc_b"),
	higher("count", "serving.batch_size_mean"),
	lower("ms", "serving.batch_wait_ms_mean"),
	higher("count", "serving.served"),
	lower("count", "serving.shed_full", "serving.shed_expired", "serving.shed_canceled"),
	lower("ms", "serving.promote.ms"),

	lower("us", "core.session_diagnose.us", "core.session_diagnose.self_us"),
	lower("B", "core.session_diagnose.alloc_b"),
	lower("count", "core.session_diagnose.allocs"),
	lower("us", "core.session_batch64.us_per_row"),
	lower("B", "core.session_batch64.alloc_b_per_row"),
	lower("us", "core.model_diagnose.us"),
	lower("B", "core.model_diagnose.alloc_b"),
	lower("us", "core.new_session.us"),
	lower("B", "core.new_session.alloc_b"),
	lower("s", "core.train_general.s", "core.specialize.s"),

	lower("us", "probe.layout_validate.us", "probe.normalize.us"),
	lower("B", "probe.normalize.alloc_b"),

	lower("us", "nn.input_gradient.us"),
	lower("B", "nn.input_gradient.alloc_b"),
	lower("count", "nn.input_gradient.allocs"),
	lower("us", "nn.input_gradient_b64.us_per_row"),
	lower("B", "nn.input_gradient_b64.alloc_b_per_row"),
	lower("us", "nn.forward.us"),
	lower("s", "nn.fit.s"),

	lower("us", "mat.mul_b1.us", "mat.mul_b64.us"),
	higher("GFLOP/s", "mat.mul_b64.gflops"),
	lower("us", "mat.mul_t1_b64.us", "mat.mul_t2_b64.us"),

	lower("us", "forest.scores.us"),
	lower("B", "forest.scores.alloc_b"),
	lower("s", "forest.fit.s"),

	lower("ratio", "telemetry.overhead_share", "tracing.overhead_share"),
	lower("s", "dataset.generate.s"),

	lower("count", "runtime.gc_cycles"),
	lower("ms", "runtime.gc_pause_total_ms", "runtime.gc_pause_max_ms"),
	lower("ratio", "runtime.gc_cpu_share"),
	lower("MB", "runtime.heap_peak_mb"),
	lower("count", "runtime.goroutines"),

	lower("us", "trace.top_rung.us", "trace.c1_untraced_p50.us"),
	lower("ratio", "trace.overhead_share"),
)

func concat(groups ...[]metricDef) []metricDef {
	var out []metricDef
	for _, g := range groups {
		out = append(out, g...)
	}
	return out
}

// manifest renders BENCHMARK.json.
func manifest() []byte {
	type bare struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	layers := make([]bare, len(perLayer))
	for i, m := range perLayer {
		layers[i] = bare{m.Name, m.Unit, m.Better}
	}
	out, err := json.MarshalIndent(struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []bare        `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
		EndToEnd:   endToEnd,
		PerLayer:   layers,
	}, "", "  ")
	if err != nil {
		panic(err) // static tables: only a bug can fail here
	}
	return append(out, '\n')
}

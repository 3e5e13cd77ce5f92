// Command bench is this repository's benchmark: the end-to-end diagnosis
// path (client → router → two replicas → engine → core) under four
// workloads, with gated end-to-end metrics and a per-layer ladder trace.
// See README.md for every workload and metric; BENCHMARK.json at the
// repository root is generated from metrics.go.
//
// Usage (from the repository root):
//
//	bash bench/run.sh [-workload all|<name>] [-seed 11] [-seconds 22] [-reps 11]
//	                  [-trace 0|1] [-report bench/out/BENCH_e2e.json]
//	bash bench/run.sh -compare a.json b.json
//	bash bench/run.sh -manifest > BENCHMARK.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync/atomic"
	"time"

	"diagnet/internal/analysis"
	"diagnet/internal/telemetry"
	"diagnet/internal/tracing"
)

// options is one invocation's settings; everything is benchmark-side, the
// program under test takes no switch.
type options struct {
	workload string  // one workload's name, or "all"
	seed     int64   // picks the requests and their order; never reaches the program
	seconds  float64 // time measured per workload
	reps     int     // repetitions that time is split into; see metricDef.reported
	trace    bool    // false: end-to-end metrics; true: the per-layer pass
	outDir   string  // where trace_<workload>.jsonl goes
	cacheDir string  // where the trained bundle waits for the next run; empty: nowhere
	fixture  fixtureConfig
	boots    int           // stack boots behind setup_s
	warm     time.Duration // untimed warm-up per serving workload
}

func defaultOptions() options {
	return options{
		workload: "all", seed: 11, seconds: runSeconds, reps: 11,
		outDir: "bench/out", cacheDir: ".bench_build", fixture: defaultFixtureConfig(),
		boots: 5, warm: time.Second,
	}
}

// result is one workload's outcome. EndToEnd keeps the per-repetition
// values behind every reported value.
type result struct {
	Workload  string               `json:"workload"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end,omitempty"`
	PerLayer  values               `json:"per_layer,omitempty"`
}

// load is one serving workload bound to a booted stack.
type load struct {
	name       string
	plan       plan
	sc         *scorer
	perRequest int  // diagnoses per request
	routed     bool // through the router, or straight at replica 0
	cursor     atomic.Int64
	// requests returns what body i carries, for the ladder.
	requests func(i int) []analysis.DiagnoseRequest
}

// topRung is the ladder rung that covers the workload's whole path.
func (l *load) topRung() string {
	if l.routed {
		return "cluster.route"
	}
	return "analysis.http"
}

// interactiveRate is the open-loop arrival rate of interactive_routed, in
// requests per second; at ≈4 ms of CPU per diagnosis it keeps two cores
// about a third busy, so the queue never grows.
const interactiveRate = 150

// numClients is c = min(nproc, 4): client goroutines and keep-alive
// connections, all from this one process.
func numClients() int { return min(runtime.NumCPU(), 4) }

// newLoads generates the three serving workloads' requests from the seed.
func newLoads(fx *fixture, st *stack, seed int64) (map[string]*load, error) {
	rng := rand.New(rand.NewSource(seed))
	loads := map[string]*load{}

	order := rng.Perm(len(fx.mixed))
	sc := newScorer(fx.mixed)
	bodies := make([][]byte, len(order))
	for i, idx := range order {
		bodies[i] = fx.mixed[idx].body
	}
	loads[wInteractive] = &load{
		name: wInteractive, sc: sc, perRequest: 1, routed: true,
		plan: plan{url: st.routerURL + "/v1/diagnose", bodies: bodies, rate: interactiveRate, sloMs: 25, check: sc.single(order)},
		requests: func(i int) []analysis.DiagnoseRequest {
			return []analysis.DiagnoseRequest{fx.mixed[order[i]].req}
		},
	}

	for _, w := range []struct {
		name   string
		pool   []request
		routed bool
	}{{wBulkUniform, fx.uniform, false}, {wBulkMixed, fx.mixed, true}} {
		pool := w.pool
		members, bodies, err := batchBodies(pool, rng.Perm(len(pool)))
		if err != nil {
			return nil, err
		}
		sc := newScorer(pool)
		l := &load{
			name: w.name, sc: sc, perRequest: batchSize, routed: w.routed,
			plan: plan{url: st.replicaURL[0] + "/v1/diagnose-batch", bodies: bodies, sloMs: 250, check: sc.batch(members)},
			requests: func(i int) []analysis.DiagnoseRequest {
				reqs := make([]analysis.DiagnoseRequest, len(members[i]))
				for k, idx := range members[i] {
					reqs[k] = pool[idx].req
				}
				return reqs
			},
		}
		if w.routed {
			l.plan.url = st.routerURL + "/v1/diagnose-batch"
		}
		loads[w.name] = l
	}
	return loads, nil
}

// bench is one invocation after set-up: the fixture, the booted stack and
// the seeded request plans.
type bench struct {
	o         options
	fx        *fixture
	st        *stack
	clients   int
	bootS     []float64 // one per boot; setup_s is reported from them
	promoteMs []float64
	loads     map[string]*load
	retrain   *retrainer
}

// run executes one invocation and returns a result per selected workload,
// in the order of the workloads table.
func run(ctx context.Context, o options) ([]*result, error) {
	var selected []string
	for _, w := range workloads {
		if o.workload == "all" || o.workload == w.Name {
			selected = append(selected, w.Name)
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("bench: unknown workload %q", o.workload)
	}
	if o.reps < 1 || o.seconds <= 0 || o.boots < 1 {
		return nil, fmt.Errorf("bench: need -reps >= 1 and -seconds > 0")
	}
	b, err := setUp(ctx, o, selected)
	if err != nil {
		return nil, err
	}
	defer b.st.close()

	results := map[string]*result{}
	if o.trace {
		err = b.traced(ctx, selected, results)
	} else {
		b.endToEnd(ctx, selected, results)
	}
	if err != nil {
		return nil, err
	}
	out := make([]*result, 0, len(selected))
	for _, name := range selected {
		out = append(out, results[name])
	}
	return out, nil
}

// setUp builds the fixture, boots the stack and generates the requests.
//
// setup_s is what the program needs to go from a model file's bytes to its
// first routed answer: decode the bundle into both replicas, promote
// (per-worker session warm-up), open listeners, build the router, pass
// /readyz, answer one request. The stack is booted several times; the
// lower quartile is reported and the last stack is the one measured. Training the
// fixture is not part of it: throughput_per_s on retrain gates that.
func setUp(ctx context.Context, o options, selected []string) (*bench, error) {
	// The daemons' defaults: telemetry on, every request traced.
	tracing.Configure(tracing.Config{SampleRate: 1})
	tracing.SetEnabled(true)
	telemetry.SetEnabled(true)

	needUniform := slices.Contains(selected, wBulkUniform)
	needMixed := len(selected) > 1 || !needUniform // every other workload draws from the mixed pool
	fx, err := buildFixture(o.fixture, o.cacheDir, o.trace, needMixed, needUniform)
	if err != nil {
		return nil, err
	}
	pool := fx.mixed
	if len(pool) == 0 {
		pool = fx.uniform
	}
	first := &pool[0] // the request every boot must answer before it counts as up

	b := &bench{o: o, fx: fx, clients: numClients()}
	for i := 0; i < o.boots; i++ {
		if b.st != nil {
			b.st.close()
		}
		// Every boot starts from a collected heap, as a fresh process
		// would; otherwise the previous stack's garbage decides when the
		// collector interrupts this boot.
		runtime.GC()
		t0 := time.Now()
		if b.st, err = bootStack(fx.blob, b.clients); err != nil {
			return nil, err
		}
		resp, err := post(ctx, b.st.client, b.st.routerURL+"/v1/diagnose", first.body)
		b.bootS = append(b.bootS, time.Since(t0).Seconds())
		b.promoteMs = append(b.promoteMs, b.st.promoteMs...)
		var got analysis.DiagnoseResponse
		if err != nil || json.Unmarshal(resp, &got) != nil || !first.want.matches(&got) {
			b.st.close()
			return nil, fmt.Errorf("bench: the first request was not answered with the reference answer (error: %v)", err)
		}
	}
	if b.loads, err = newLoads(fx, b.st, o.seed); err != nil {
		b.st.close()
		return nil, err
	}
	b.retrain = newRetrainer(fx, o.seed)
	return b, nil
}

func (b *bench) repDur() time.Duration {
	return time.Duration(b.o.seconds / float64(b.o.reps) * float64(time.Second))
}

// rep measures one repetition of a serving workload.
func (b *bench) rep(ctx context.Context, l *load) rep {
	return measure(func() ([]sample, time.Duration) {
		return generate(ctx, b.st.client, &l.plan, b.clients, b.repDur(), &l.cursor)
	})
}

func (b *bench) warmUp(ctx context.Context, l *load) {
	generate(ctx, b.st.client, &l.plan, b.clients, b.o.warm, &l.cursor)
}

// perRun is the end-to-end metrics that are measured once per run rather
// than once per repetition; sc scored the workload's answers and liveMB is
// the live heap after its last repetition.
func (b *bench) perRun(sc *scorer, liveMB float64) map[string][]float64 {
	at1, at5, _ := sc.recall()
	return map[string][]float64{
		"setup_s":      b.bootS,
		"live_heap_mb": {liveMB},
		"recall_at_1":  {at1},
		"recall_at_5":  {at5},
	}
}

// endToEnd measures the gated metrics with the ladder off.
func (b *bench) endToEnd(ctx context.Context, selected []string, results map[string]*result) {
	var serving []*load
	for _, name := range selected {
		if l := b.loads[name]; l != nil {
			serving = append(serving, l)
			b.warmUp(ctx, l)
		}
	}
	runtime.GC()
	// Repetitions are interleaved across workloads so that a slow stretch
	// of the machine does not land on one of them.
	reps := map[*load][]rep{}
	liveMB := map[*load]float64{}
	for r := 0; r < b.o.reps; r++ {
		for _, l := range serving {
			reps[l] = append(reps[l], b.rep(ctx, l))
			if r == b.o.reps-1 {
				liveMB[l] = liveHeapMB()
			}
		}
	}
	for _, l := range serving {
		res := &result{Workload: l.name, EndToEnd: b.perRun(l.sc, liveMB[l])}
		for i := range reps[l] {
			for k, v := range reps[l][i].endToEnd() {
				res.EndToEnd[k] = append(res.EndToEnd[k], v)
			}
		}
		_, t := clientLayer(reps[l], l.perRequest, l.plan.sloMs)
		res.Attempted, res.Failed = t.attempted, t.failed
		results[l.name] = res
	}
	if !slices.Contains(selected, wRetrain) {
		return
	}
	// Rounds of fixed work: enough to score the whole pool, then more while
	// another one still fits into the measured time.
	res := &result{Workload: wRetrain}
	var rounds []values
	for start := time.Now(); ; {
		r := b.retrain.round(nil, 0)
		rounds = append(rounds, r.endToEnd(b.retrain))
		res.Attempted += len(r.latencyMs)
		res.Failed += r.failed
		took := time.Since(start).Seconds()
		if len(rounds) >= retrainRoundsMin && took+took/float64(len(rounds)) > b.o.seconds {
			break
		}
	}
	res.EndToEnd = b.perRun(b.retrain.sc, liveHeapMB())
	for _, v := range rounds {
		for k, x := range v {
			res.EndToEnd[k] = append(res.EndToEnd[k], x)
		}
	}
	results[wRetrain] = res
}

// traced is the per-layer pass: for every selected workload the rows of
// its path, a trace file, and the workload-independent micro rows.
func (b *bench) traced(ctx context.Context, selected []string, results map[string]*result) error {
	micro := microRows(b.fx, time.Duration(b.o.seconds*float64(time.Second)/100))
	for _, name := range selected {
		res := &result{Workload: name, PerLayer: values{
			"serving.promote.ms":   median(b.promoteMs),
			"dataset.generate.s":   b.fx.datasetGenerateS,
			"core.train_general.s": b.fx.trainGeneralS,
			"core.specialize.s":    median(b.fx.specializeS),
		}}
		for k, v := range micro {
			res.PerLayer[k] = v
		}
		t := &tracer{epoch: time.Now()}
		if l := b.loads[name]; l != nil {
			if err := b.tracedServing(ctx, l, t, res); err != nil {
				return err
			}
		} else {
			b.tracedRetrain(t, res)
		}
		if err := t.write(filepath.Join(b.o.outDir, "trace_"+name+".jsonl")); err != nil {
			return fmt.Errorf("bench: write trace: %w", err)
		}
		// Keep exactly the rows BENCHMARK.json names; one that is not on
		// this workload's path reads 0.
		rows := res.PerLayer
		res.PerLayer = values{}
		for _, m := range perLayer {
			res.PerLayer[m.Name] = rows[m.Name]
		}
		results[name] = res
	}
	return nil
}

// tracedServing is the per-layer pass of one serving workload: a short
// untraced window for the counters only a loaded system shows, then the
// ladder, then a one-client untraced pass over the same requests to price
// the ladder's own overhead.
func (b *bench) tracedServing(ctx context.Context, l *load, t *tracer, res *result) error {
	b.warmUp(ctx, l)
	runtime.GC()

	before := readCounters(b.st)
	heap := startHeapSampler()
	reps := []rep{b.rep(ctx, l), b.rep(ctx, l)}
	peak := heap.peakMB()
	after := readCounters(b.st)
	client, tally := clientLayer(reps, l.perRequest, l.plan.sloMs)
	routed := 0
	if l.routed {
		routed = int(client["client.sent"])
	}
	for k, v := range layerDeltas(&before, &after, routed) {
		res.PerLayer[k] = v
	}
	for k, v := range client {
		res.PerLayer[k] = v
	}
	res.PerLayer["runtime.heap_peak_mb"] = peak
	_, _, excluded := l.sc.recall()
	res.PerLayer["client.recall_excluded"] = float64(excluded)
	res.Attempted, res.Failed = tally.attempted, tally.failed

	// The ladder: up to 300 requests, fewer when they would not fit into
	// a third of the measured time.
	c := newClimber(b.fx, b.st)
	budget := time.Duration(b.o.seconds * float64(time.Second) / 3)
	var reqBytes, respBytes []float64
	n := 0
	for start := time.Now(); n < 300 && (n < 5 || time.Since(start) < budget); n++ {
		i := n % len(l.plan.bodies)
		body := l.plan.bodies[i]
		bad, size, err := c.climb(ctx, t, n, l.requests(i), body, func(resp []byte) (int, int) { return l.plan.check(i, resp) })
		if err != nil {
			return err
		}
		res.Attempted += 2 * l.perRequest // the analysis.http and cluster.route rungs are judged
		res.Failed += bad
		reqBytes = append(reqBytes, float64(len(body)))
		respBytes = append(respBytes, float64(size))
	}
	for k, v := range t.ladderRows(l.topRung()) {
		res.PerLayer[k] = v
	}
	res.PerLayer["analysis.request_bytes"] = median(reqBytes)
	res.PerLayer["analysis.response_bytes"] = median(respBytes)

	var c1 []float64
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := post(ctx, b.st.client, l.plan.url, l.plan.bodies[i%len(l.plan.bodies)]); err != nil {
			return fmt.Errorf("bench: untraced one-client pass: %w", err)
		}
		c1 = append(c1, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	p50 := median(c1)
	res.PerLayer["trace.c1_untraced_p50.us"] = p50
	res.PerLayer["trace.overhead_share"] = (res.PerLayer["trace.top_rung.us"] - p50) / p50
	return nil
}

// tracedRetrain is the per-layer pass of the offline workload: one walk
// over the pool with a span per call, plus the training-side entry points.
func (b *bench) tracedRetrain(t *tracer, res *result) {
	before := readCounters(b.st)
	heap := startHeapSampler()
	var lat []float64
	for i := 0; i < retrainRoundsMin; i++ {
		r := b.retrain.round(t, i)
		lat = append(lat, r.latencyMs...)
		res.Failed += r.failed
	}
	peak := heap.peakMB()
	after := readCounters(b.st)
	for k, v := range layerDeltas(&before, &after, 0) {
		res.PerLayer[k] = v
	}
	for k, v := range trainingSpans(b.fx, t, retrainRoundsMin) {
		res.PerLayer[k] = v
	}
	_, _, excluded := b.retrain.sc.recall()
	for k, v := range (values{
		"runtime.heap_peak_mb":   peak,
		"client.sent":            float64(len(lat)),
		"client.ok":              float64(len(lat) - res.Failed),
		"client.failed":          float64(res.Failed),
		"client.recall_excluded": float64(excluded),
		"client.latency_p99_ms":  quantile(lat, 0.99),
		"client.latency_max_ms":  quantile(lat, 1),
	}) {
		res.PerLayer[k] = v
	}
	res.Attempted = len(lat)
}

// contractLine renders the driver's result object for one workload.
func contractLine(res *result, trace bool) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]metric{}
	if trace {
		for _, m := range perLayer {
			ms[m.Name] = metric{res.PerLayer[m.Name], m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			ms[m.Name] = metric{m.reported(res.EndToEnd[m.Name]), m.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Failed == 0 && res.Attempted > 0, res.Attempted, res.Failed, ms})
	if err != nil {
		panic(err) // a non-finite value: a bug in a metric's computation
	}
	return string(line)
}

func main() {
	o := defaultOptions()
	var trace int
	var report string
	var compare, printManifest bool
	flag.StringVar(&o.workload, "workload", o.workload, "workload to run, or all")
	flag.Int64Var(&o.seed, "seed", o.seed, "seed of the request generator")
	flag.Float64Var(&o.seconds, "seconds", o.seconds, "seconds measured per workload")
	flag.IntVar(&o.reps, "reps", o.reps, "repetitions the measured time is split into")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics and the ladder trace")
	flag.StringVar(&report, "report", "", "also write a stamped JSON report to this file")
	flag.BoolVar(&compare, "compare", false, "compare two reports: -compare a.json b.json")
	flag.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()
	o.trace = trace != 0

	switch {
	case printManifest:
		os.Stdout.Write(manifest())
		return
	case compare:
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: -compare a.json b.json")
			os.Exit(2)
		}
		worse, err := compareReports(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	results, err := run(context.Background(), o)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	for _, res := range results {
		printRows(os.Stdout, res)
	}
	if report != "" {
		if err := writeReport(report, o, results); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	for _, res := range results {
		fmt.Println(contractLine(res, o.trace))
	}
}

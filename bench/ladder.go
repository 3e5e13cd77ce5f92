package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"diagnet/internal/analysis"
	"diagnet/internal/core"
	"diagnet/internal/mat"
	"diagnet/internal/nn"
	"diagnet/internal/probe"
	"diagnet/internal/serving"
)

// The ladder attributes a request's time to layers from outside the
// program: for each traced request it calls the layers' public entry
// points on the same input, innermost first, and records one span per
// call. A rung's self time is its duration minus that of the rungs it
// contains, so self times telescope to the top rung by construction and
// each *.self_us row is that level's otherwise-unexplained remainder.
//
// Known limit: rungs run back to back, not nested, so an inner rung warms
// the caches for the outer one that repeats its work.

// span is one timed call, as written to trace_<workload>.jsonl.
type span struct {
	TraceID int    `json:"trace_id"`
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	AllocB  uint64 `json:"alloc_b"`
	Allocs  uint64 `json:"allocs"`
}

// rungParent is the containment between rungs. The two client-side codec
// rungs stand outside the tree: the generator pays them, not the program.
var rungParent = map[string]string{
	"analysis.encode_request":  "",
	"analysis.decode_response": "",
	"cluster.route":            "",
	"analysis.http":            "cluster.route",
	"analysis.decode_request":  "analysis.http",
	"analysis.encode_response": "analysis.http",
	"analysis.diagnose":        "analysis.http",
	"probe.layout_validate":    "analysis.diagnose",
	"serving.submit":           "analysis.diagnose",
	"core.session_diagnose":    "serving.submit",
	"probe.normalize":          "core.session_diagnose",
	"nn.input_gradient":        "core.session_diagnose",
	"forest.scores":            "core.session_diagnose",
}

// tracer collects spans in memory.
type tracer struct {
	epoch time.Time
	spans []span
}

// rung times one call and records it as a span; the two MemStats readings
// sit outside the timed interval. A nil tracer only times the call.
func (t *tracer) rung(trace int, name, parent string, fn func()) time.Duration {
	if t == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	fn()
	end := time.Now()
	runtime.ReadMemStats(&m1)
	t.spans = append(t.spans, span{
		TraceID: trace, Name: name, Parent: parent,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
		AllocB: m1.TotalAlloc - m0.TotalAlloc, Allocs: m1.Mallocs - m0.Mallocs,
	})
	return end.Sub(start)
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// rungTotals sums, per trace, the duration and allocation of every rung
// (a rung that ran once per group has several spans in one trace).
type rungTotal struct {
	ns     int64
	allocB uint64
	allocs uint64
}

func (t *tracer) totals() map[int]map[string]rungTotal {
	out := map[int]map[string]rungTotal{}
	for _, s := range t.spans {
		m := out[s.TraceID]
		if m == nil {
			m = map[string]rungTotal{}
			out[s.TraceID] = m
		}
		r := m[s.Name]
		r.ns += s.EndNs - s.StartNs
		r.allocB += s.AllocB
		r.allocs += s.Allocs
		m[s.Name] = r
	}
	return out
}

// selfNs is a rung's duration minus the durations of the rungs it contains.
func selfNs(trace map[string]rungTotal, name string) int64 {
	self := trace[name].ns
	for child, parent := range rungParent {
		if parent == name {
			self -= trace[child].ns
		}
	}
	return self
}

// ladderRows reduces the spans to rows: for every rung the median over
// traces of its time, self time, bytes and allocations, named
// <rung>.us, .self_us, .alloc_b and .allocs, plus the top rung's time.
func (t *tracer) ladderRows(top string) values {
	totals := t.totals()
	med := func(get func(map[string]rungTotal) float64) float64 {
		xs := make([]float64, 0, len(totals))
		for _, trace := range totals {
			xs = append(xs, get(trace))
		}
		return median(xs)
	}
	v := values{}
	for name := range rungParent {
		v[name+".us"] = med(func(tr map[string]rungTotal) float64 { return float64(tr[name].ns) / 1e3 })
		v[name+".self_us"] = med(func(tr map[string]rungTotal) float64 { return float64(selfNs(tr, name)) / 1e3 })
		v[name+".alloc_b"] = med(func(tr map[string]rungTotal) float64 { return float64(tr[name].allocB) })
		v[name+".allocs"] = med(func(tr map[string]rungTotal) float64 { return float64(tr[name].allocs) })
	}
	v["trace.top_rung.us"] = v[top+".us"]
	return v
}

// climber holds what the ladder needs beside the stack: private sessions
// and network clones of the reference models, one per service.
type climber struct {
	fx       *fixture
	st       *stack
	sessions map[int]*core.Session
	clones   map[int]*nn.Network
}

func newClimber(fx *fixture, st *stack) *climber {
	return &climber{fx: fx, st: st, sessions: map[int]*core.Session{}, clones: map[int]*nn.Network{}}
}

func (c *climber) session(service int) *core.Session {
	m := c.fx.bundle.ModelFor(service)
	if c.sessions[m.ServiceID] == nil {
		c.sessions[m.ServiceID] = m.NewSession()
		c.clones[m.ServiceID] = m.Net.Clone()
	}
	return c.sessions[m.ServiceID]
}

// group is the rows of one traced request that share a model and a layout,
// what the engine fuses into one pass.
type group struct {
	service int
	layout  probe.Layout
	rows    [][]float64
}

func groupRequests(reqs []analysis.DiagnoseRequest) []*group {
	type key struct{ service, landmarks int } // the three layouts differ in size
	byKey := map[key]*group{}
	var out []*group
	for i := range reqs {
		r := &reqs[i]
		k := key{r.ServiceID, len(r.Landmarks)}
		g := byKey[k]
		if g == nil {
			g = &group{service: r.ServiceID, layout: probe.NewLayout(r.Landmarks)}
			byKey[k] = g
			out = append(out, g)
		}
		g.rows = append(g.rows, r.Features)
	}
	return out
}

// toFull spreads a feature vector over the deployment-wide layout,
// zero-filling absent landmarks: the input the auxiliary forest takes.
func toFull(features []float64, layout, full probe.Layout) []float64 {
	out := make([]float64, full.NumFeatures())
	for pos, region := range layout.Landmarks {
		fp := full.LandmarkPos(region)
		for m := 0; m < int(probe.NumMetrics); m++ {
			out[full.FeatureIndex(fp, probe.Metric(m))] = features[layout.FeatureIndex(pos, probe.Metric(m))]
		}
	}
	for li := 0; li < probe.NumLocal; li++ {
		out[full.LocalIndex(li)] = features[layout.LocalIndex(li)]
	}
	return out
}

// concurrently runs fn(i) for i in [0, n) on n goroutines and waits, the
// way the batch handler fans a request out; n == 1 runs inline.
func concurrently(n int, fn func(i int)) {
	if n == 1 {
		fn(0)
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// climb runs every rung for one request (a single sample, or a batch when
// len(reqs) > 1). It returns how many of the diagnoses served over HTTP
// failed the judge, and the size of the response body.
func (c *climber) climb(ctx context.Context, t *tracer, trace int, reqs []analysis.DiagnoseRequest, body []byte, judge func(resp []byte) (ok, mismatched int)) (bad, respBytes int, err error) {
	rung := func(name string, fn func()) { t.rung(trace, name, rungParent[name], fn) }
	batch := len(reqs) > 1
	path := "/v1/diagnose"
	if batch {
		path = "/v1/diagnose-batch"
	}
	full := c.fx.full

	rung("analysis.encode_request", func() {
		if batch {
			json.Marshal(&analysis.BatchRequest{Requests: reqs})
		} else {
			json.Marshal(&reqs[0])
		}
	})
	rung("analysis.decode_request", func() {
		if batch {
			json.Unmarshal(body, new(analysis.BatchRequest))
		} else {
			json.Unmarshal(body, new(analysis.DiagnoseRequest))
		}
	})
	var invalid error
	rung("probe.layout_validate", func() {
		for i := range reqs {
			if err := probe.NewLayout(reqs[i].Landmarks).Validate(full); err != nil {
				invalid = err
			}
		}
	})
	if invalid != nil {
		return 0, 0, fmt.Errorf("bench: generated layout invalid: %w", invalid)
	}

	for _, g := range groupRequests(reqs) {
		sess := c.session(g.service)
		m := sess.Model()
		net := c.clones[m.ServiceID]
		b, n := len(g.rows), g.layout.NumFeatures()
		x := mat.New(b, n)
		fulls := make([][]float64, b)
		for i, row := range g.rows {
			fulls[i] = toFull(row, g.layout, full)
		}
		scores := make([]float64, m.Aux.Causes())
		rung("probe.normalize", func() {
			for i, row := range g.rows {
				m.Norm.ApplyInto(row, g.layout, x.Row(i))
			}
		})
		rung("nn.input_gradient", func() { net.InputGradientBatch(x, nil) })
		rung("forest.scores", func() {
			for _, fv := range fulls {
				m.Aux.ScoresInto(fv, scores)
			}
		})
		rung("core.session_diagnose", func() { sess.DiagnoseBatch(g.rows, g.layout) })
	}

	engine := c.st.servers[0].Engine()
	errs := make([]error, len(reqs))
	rung("serving.submit", func() {
		concurrently(len(reqs), func(i int) {
			sub := &serving.Request{ServiceID: reqs[i].ServiceID, Layout: probe.NewLayout(reqs[i].Landmarks), Features: reqs[i].Features}
			if batch {
				_, errs[i] = engine.SubmitWait(ctx, sub)
			} else {
				_, errs[i] = engine.Submit(ctx, sub)
			}
		})
	})
	rung("analysis.diagnose", func() {
		concurrently(len(reqs), func(i int) {
			if _, err := c.st.servers[0].Diagnose(&reqs[i]); err != nil {
				errs[i] = err
			}
		})
	})
	for _, err := range errs {
		if err != nil {
			return 0, 0, fmt.Errorf("bench: in-process rung: %w", err)
		}
	}

	var direct, routed []byte
	var derr, rerr error
	rung("analysis.http", func() { direct, derr = post(ctx, c.st.client, c.st.replicaURL[0]+path, body) })
	rung("cluster.route", func() { routed, rerr = post(ctx, c.st.client, c.st.routerURL+path, body) })
	if derr != nil {
		return 0, 0, fmt.Errorf("bench: analysis.http rung: %w", derr)
	}
	if rerr != nil {
		return 0, 0, fmt.Errorf("bench: cluster.route rung: %w", rerr)
	}

	var decoded any = new(analysis.DiagnoseResponse)
	if batch {
		decoded = new(analysis.BatchResponse)
	}
	rung("analysis.decode_response", func() { json.Unmarshal(routed, decoded) })
	rung("analysis.encode_response", func() { json.Marshal(decoded) })

	_, bad1 := judge(direct)
	_, bad2 := judge(routed)
	return bad1 + bad2, len(routed), nil
}

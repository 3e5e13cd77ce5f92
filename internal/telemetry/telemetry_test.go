package telemetry

import (
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotonic
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestGauge(t *testing.T) {
	var g Gauge
	g.Set(2.5)
	g.Add(1.5)
	g.Add(-4)
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge = %v, want 0", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	// 100 observations uniform in (0,1]: all land in the first bucket.
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 100)
	}
	p := h.Point("")
	if p.Count() != 100 {
		t.Fatalf("count %d", p.Count())
	}
	if mean := p.Sum / float64(p.Count()); math.Abs(mean-0.505) > 1e-9 {
		t.Fatalf("mean %v", mean)
	}
	// Interpolation inside [0,1]: p50 ≈ 0.5, p99 ≈ 0.99.
	if p50, p99 := p.Quantile(0.5), p.Quantile(0.99); math.Abs(p50-0.5) > 0.02 || math.Abs(p99-0.99) > 0.02 {
		t.Fatalf("p50=%v p99=%v", p50, p99)
	}
}

func TestHistogramAcrossBuckets(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 40})
	for i := 0; i < 90; i++ {
		h.Observe(5) // first bucket
	}
	for i := 0; i < 10; i++ {
		h.Observe(35) // third bucket
	}
	p := h.Point("")
	if p50 := p.Quantile(0.5); p50 > 10 {
		t.Fatalf("p50 %v should be inside the first bucket", p50)
	}
	if p99 := p.Quantile(0.99); p99 <= 20 || p99 > 40 {
		t.Fatalf("p99 %v should be inside (20,40]", p99)
	}
}

func TestHistogramOverflowSaturates(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	for i := 0; i < 10; i++ {
		h.Observe(1000)
	}
	p := h.Point("")
	if p.Quantile(0.5) != 2 || p.Quantile(0.99) != 2 {
		t.Fatalf("overflow quantiles should saturate at the last bound: %+v", p)
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(nil)
	p := h.Point("")
	if p.Count() != 0 || p.Sum != 0 || p.Quantile(0.5) != 0 {
		t.Fatalf("empty point %+v", p)
	}
}

func TestHistogramRejectsUnsortedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on unsorted bounds")
		}
	}()
	NewHistogram([]float64{2, 1})
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := New()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("counter not memoized")
	}
	if r.Gauge("g") != r.Gauge("g") {
		t.Fatal("gauge not memoized")
	}
	if r.Histogram("h", nil) != r.Histogram("h", []float64{1}) {
		t.Fatal("histogram not memoized")
	}
}

func TestRegistrySnapshotJSON(t *testing.T) {
	r := New()
	r.Counter("reqs").Add(3)
	r.Gauge("inflight").Set(2)
	r.Histogram("lat_ms", nil).Observe(12)
	want := r.Export()
	b, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got Export
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("roundtrip %+v, want %+v", got, want)
	}
	if v, ok := got.Counter("reqs"); !ok || v != 3 {
		t.Fatalf("counter roundtrip %d, %v", v, ok)
	}
	if v, ok := got.Gauge("inflight"); !ok || v != 2 {
		t.Fatalf("gauge roundtrip %v, %v", v, ok)
	}
	if h, ok := got.Histogram("lat_ms"); !ok || h.Count() != 1 || h.Sum != 12 {
		t.Fatalf("histogram roundtrip %+v", h)
	}
}

func TestConcurrentObservations(t *testing.T) {
	r := New()
	c := r.Counter("c")
	g := r.Gauge("g")
	h := r.Histogram("h", []float64{1, 10, 100})
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 120))
				// Interleave registry lookups with observations.
				r.Counter("c").Value()
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*each {
		t.Fatalf("counter %d, want %d", c.Value(), workers*each)
	}
	if g.Value() != workers*each {
		t.Fatalf("gauge %v, want %d", g.Value(), workers*each)
	}
	if cum := h.Cumulative(); cum[len(cum)-1] != workers*each {
		t.Fatalf("histogram +Inf bucket %d, want %d", cum[len(cum)-1], workers*each)
	}
	if got := h.Count(); got != workers*each {
		t.Fatalf("histogram count %d, want %d", got, workers*each)
	}
}

func BenchmarkCounterInc(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i % 1000))
	}
}

// TestEmptyHistogramSentinel pins the zero-observation contract: the sum
// and every quantile of an empty histogram are the documented sentinel 0
// — not an interpolated value, not NaN — on the exported point and on a
// point with no buckets at all.
func TestEmptyHistogramSentinel(t *testing.T) {
	h := NewHistogram(nil)
	p := h.Point("empty")
	if p.Count() != 0 {
		t.Fatalf("count %d on an empty histogram", p.Count())
	}
	var bare HistogramPoint
	for name, v := range map[string]float64{
		"sum": p.Sum, "p50": p.Quantile(0.5), "p90": p.Quantile(0.9), "p99": p.Quantile(0.99),
		"bare p99": bare.Quantile(0.99),
	} {
		if v != 0 {
			t.Errorf("%s = %v on an empty histogram (want sentinel 0)", name, v)
		}
	}
	if bare.Count() != 0 {
		t.Errorf("count %d on a point with no buckets", bare.Count())
	}
	if p.Exemplar != nil {
		t.Fatalf("exemplar %+v on an empty histogram", p.Exemplar)
	}
	if _, err := json.Marshal(p); err != nil {
		t.Fatalf("empty point does not marshal: %v", err)
	}
}

// TestHistogramExemplar checks that tail-bucket exemplars surface in
// exported points and that the tail-most captured exemplar wins.
func TestHistogramExemplar(t *testing.T) {
	h := NewHistogram(nil)
	h.ObserveExemplar(0.5, "trace-fast")
	h.ObserveExemplar(400, "trace-slow")
	h.Observe(401) // same bucket, no trace: must not clobber the exemplar
	p := h.Point("")
	if p.Exemplar == nil {
		t.Fatal("no exemplar in the exported point")
	}
	if p.Exemplar.TraceID != "trace-slow" || p.Exemplar.Value != 400 {
		t.Fatalf("want the tail exemplar, got %+v", p.Exemplar)
	}
	// Empty trace ID degrades to a plain observation.
	h2 := NewHistogram(nil)
	h2.ObserveExemplar(1, "")
	if p2 := h2.Point(""); p2.Count() != 1 || p2.Exemplar != nil {
		t.Fatalf("empty-trace observation mishandled: %+v", p2)
	}
}

// A traced observation allocates nothing: the trace ID is kept as it was
// handed in, in the bucket's slot.
func TestObserveExemplarAllocatesNothing(t *testing.T) {
	h := NewHistogram(nil)
	id := "4bf92f3577b34da6a3ce929d0e0e4736"
	if n := testing.AllocsPerRun(200, func() { h.ObserveExemplar(12, id) }); n != 0 {
		t.Fatalf("ObserveExemplar allocates %v times a call, want 0", n)
	}
}

// Observers racing each other and Export into one bucket: every exemplar
// an export reads is a value and trace ID that one observation wrote
// together (run under -race).
func TestExemplarIsOneObservation(t *testing.T) {
	const writers, each = 4, 500
	r := New()
	h := r.Histogram("h", []float64{1})
	ids := make([]string, writers*each)
	for i := range ids {
		ids[i] = fmt.Sprintf("trace-%d", i)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := w * each; j < (w+1)*each; j++ {
				h.ObserveExemplar(float64(2+j), ids[j])
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for exports := 0; ; exports++ {
		select {
		case <-done:
			if exports == 0 {
				t.Log("every observation landed before the first export")
			}
			return
		default:
		}
		for _, p := range r.Export().Histograms {
			if ex := p.Exemplar; ex != nil && ids[int(ex.Value)-2] != ex.TraceID {
				t.Fatalf("exemplar %+v: the value of one observation and the trace of another", *ex)
			}
		}
	}
}

// TestHistogramSum pins the Sum accessor: running total of observed
// values, with the zero-observation sentinel the exported point shares.
func TestHistogramSum(t *testing.T) {
	h := NewHistogram(nil)
	if h.Sum() != 0 {
		t.Fatalf("empty sum = %v, want 0", h.Sum())
	}
	h.Observe(1.5)
	h.Observe(2.25)
	h.Observe(0.25)
	if got := h.Sum(); got != 4.0 {
		t.Fatalf("Sum = %v, want 4", got)
	}
	if p := h.Point(""); p.Sum != h.Sum() {
		t.Fatalf("Point.Sum %v != Sum() %v", p.Sum, h.Sum())
	}
}

// TestHistogramCumulative pins the cumulative bucket view: monotone
// non-decreasing, final element equal to the total count.
func TestHistogramCumulative(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 0.7, 5, 50, 500, 5000} {
		h.Observe(v)
	}
	cum := h.Cumulative()
	want := []int64{2, 3, 4, 6} // ≤1, ≤10, ≤100, +Inf
	if len(cum) != len(want) {
		t.Fatalf("cumulative len = %d, want %d", len(cum), len(want))
	}
	for i := range want {
		if cum[i] != want[i] {
			t.Fatalf("cumulative[%d] = %d, want %d (%v)", i, cum[i], want[i], cum)
		}
	}
	for i := 1; i < len(cum); i++ {
		if cum[i] < cum[i-1] {
			t.Fatalf("cumulative not monotone: %v", cum)
		}
	}
	if cum[len(cum)-1] != h.Count() {
		t.Fatalf("terminal bucket %d != count %d", cum[len(cum)-1], h.Count())
	}
}

// TestRegistryExportDeterministic pins the Export ordering contract:
// sorted by metric name, stable across calls — the JSON rendering and
// the fleet merge both key on it, and snapshot-diff tests stop churning.
func TestRegistryExportDeterministic(t *testing.T) {
	r := New()
	for _, n := range []string{"zz.last", "aa.first", "mm.middle"} {
		r.Counter(n).Inc()
		r.Gauge("g." + n).Set(1)
		r.Histogram("h."+n, nil).Observe(1)
	}
	e := r.Export()
	for i := 1; i < len(e.Counters); i++ {
		if e.Counters[i-1].Name >= e.Counters[i].Name {
			t.Fatalf("counters not sorted: %q >= %q", e.Counters[i-1].Name, e.Counters[i].Name)
		}
	}
	for i := 1; i < len(e.Gauges); i++ {
		if e.Gauges[i-1].Name >= e.Gauges[i].Name {
			t.Fatalf("gauges not sorted: %q >= %q", e.Gauges[i-1].Name, e.Gauges[i].Name)
		}
	}
	for i := 1; i < len(e.Histograms); i++ {
		if e.Histograms[i-1].Name >= e.Histograms[i].Name {
			t.Fatalf("histograms not sorted: %q >= %q", e.Histograms[i-1].Name, e.Histograms[i].Name)
		}
	}
	a, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r.Export())
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("two exports of the same state differ")
	}
}

// TestSnapshotDeterministic pins the JSON wire form of an Export byte for
// byte — what GET /v1/metrics serves and the federator decodes: sorted by
// name, dotted names, full bucket state, and non-finite floats spelled
// "NaN", "+Inf" and "-Inf".
func TestSnapshotDeterministic(t *testing.T) {
	r := New()
	r.Counter("b.two").Add(2)
	r.Counter("a.one").Inc()
	r.Gauge("nn.train.loss").Set(math.NaN())
	r.Gauge("g.level").Set(-0.5)
	r.Histogram("h.lat", []float64{1, 10}).ObserveExemplar(3, "ab12")
	const want = `{"counters":[{"name":"a.one","value":1},{"name":"b.two","value":2}],` +
		`"gauges":[{"name":"g.level","value":-0.5},{"name":"nn.train.loss","value":"NaN"}],` +
		`"histograms":[{"name":"h.lat","bounds":[1,10],"cumulative":[0,1,1],"sum":3,` +
		`"exemplar":{"value":3,"trace_id":"ab12"}}]}`
	for i := 0; i < 2; i++ {
		got, err := json.Marshal(r.Export())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Fatalf("export JSON:\n%s\nwant:\n%s", got, want)
		}
	}
}

// TestExportJSONTotal pins that a non-finite gauge — a diverged training
// loss — does not blank the JSON rendering of an Export: NaN and ±Inf
// cross the wire and decode back to the same value.
func TestExportJSONTotal(t *testing.T) {
	r := New()
	r.Gauge("nan").Set(math.NaN())
	r.Gauge("neg").Set(math.Inf(-1))
	r.Gauge("pos").Set(math.Inf(1))
	r.Gauge("fin").Set(1.5)
	b, err := json.Marshal(r.Export())
	if err != nil {
		t.Fatalf("export with non-finite gauges does not marshal: %v", err)
	}
	var got Export
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatalf("decode %s: %v", b, err)
	}
	if v, _ := got.Gauge("nan"); !math.IsNaN(v) {
		t.Errorf("NaN gauge decoded as %v", v)
	}
	if v, _ := got.Gauge("neg"); !math.IsInf(v, -1) {
		t.Errorf("-Inf gauge decoded as %v", v)
	}
	if v, _ := got.Gauge("pos"); !math.IsInf(v, 1) {
		t.Errorf("+Inf gauge decoded as %v", v)
	}
	if v, _ := got.Gauge("fin"); v != 1.5 {
		t.Errorf("finite gauge decoded as %v", v)
	}
	for _, bad := range []string{`{"gauges":[{"name":"g","value":"fast"}]}`, `{"gauges":[{"name":"g"}]}`} {
		if err := json.Unmarshal([]byte(bad), &got); err == nil {
			t.Errorf("decoded %s", bad)
		}
	}
}

// TestHistogramPointQuantile pins the one quantile routine on values
// recorded from the Snapshot percentiles it replaced (the 999999 lands in
// the overflow bucket, so the upper quantiles saturate at the last bound).
func TestHistogramPointQuantile(t *testing.T) {
	r := New()
	h := r.Histogram("q.lat", nil)
	vals := []float64{0.2, 0.4, 3, 7, 40, 90, 900, 20000, 999999}
	for _, v := range vals {
		h.Observe(v)
	}
	e := r.Export()
	p, ok := e.Histogram("q.lat")
	if !ok {
		t.Fatal("histogram missing from export")
	}
	for _, q := range []struct {
		q    float64
		want float64
	}{{0.50, 37.5}, {0.90, 60000}, {0.99, 60000}} {
		if got := p.Quantile(q.q); got != q.want {
			t.Fatalf("Quantile(%v) = %v, want %v", q.q, got, q.want)
		}
	}
	if p.Count() != h.Count() || p.Sum != h.Sum() || p.Sum != 1.0210396e+06 {
		t.Fatalf("count/sum mismatch: point %d/%v live %d/%v", p.Count(), p.Sum, h.Count(), h.Sum())
	}
}

// TestDefaultExportsRuntime: the default registry's Export carries the Go
// runtime's live heap, goroutine count, GC pauses and scheduling latencies;
// a registry of one's own carries only what was recorded into it.
func TestDefaultExportsRuntime(t *testing.T) {
	runtime.GC() // at least one GC pause
	ex := Default().Export()
	for _, name := range []string{"runtime.heap.live_mb", "runtime.goroutines"} {
		if v, ok := ex.Gauge(name); !ok || v <= 0 {
			t.Errorf("gauge %s = %v (present %v), want > 0", name, v, ok)
		}
	}
	if h, ok := ex.Histogram("runtime.gc.pause_ms"); !ok || h.Count() == 0 || h.Sum <= 0 {
		t.Errorf("runtime.gc.pause_ms after a GC: %+v", h)
	}
	if _, ok := ex.Histogram("runtime.sched.latency_ms"); !ok {
		t.Error("no runtime.sched.latency_ms")
	}
	if own := New().Export(); len(own.Gauges)+len(own.Histograms) != 0 {
		t.Errorf("a fresh registry exports runtime readings: %+v", own)
	}
}

// TestSecondsToMillis: a runtime histogram lands bucket by bucket in the
// LatencyBuckets bucket of its upper bound, open-ended buckets included.
func TestSecondsToMillis(t *testing.T) {
	h := &metrics.Float64Histogram{
		Counts:  []uint64{1, 2, 0, 3, 4},
		Buckets: []float64{math.Inf(-1), 0, 0.0004, 0.0007, 0.002, math.Inf(1)},
	}
	p := secondsToMillis("x", h)
	// ≤ 0 ms lands in the first bucket, (0, 0.4] ms under the 0.5 ms bound,
	// (0.7, 2] ms under 2.5 ms, and (2 ms, +Inf) overflows.
	for i, b := range p.Bounds {
		want := int64(1)
		switch {
		case b >= 2.5:
			want = 6
		case b >= 0.5:
			want = 3
		}
		if p.Cumulative[i] != want {
			t.Errorf("cumulative at %v ms = %d, want %d", b, p.Cumulative[i], want)
		}
	}
	if sum := 2*0.2 + 3*1.35 + 4*2.0; p.Count() != 10 || math.Abs(p.Sum-sum) > 1e-9 {
		t.Errorf("count %d sum %v, want 10 and %v", p.Count(), p.Sum, sum)
	}
}

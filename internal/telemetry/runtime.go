package telemetry

import (
	"math"
	"runtime/metrics"
	"sort"
)

// The Go runtime's own view of a process, read from runtime/metrics at
// every Export of the default registry, so a replica's /v1/metrics — and
// the router's fleet view — show what batching and the pass workspaces
// moved between garbage and retention: the live heap, the goroutine count,
// and the stop-the-world GC pauses and scheduling latencies as latency
// histograms. The runtime's histograms are cumulative since the process
// started, like every histogram here, and are re-bucketed onto
// LatencyBuckets, so they merge across replicas and subtract into windows
// like any other.
var runtimeGauges = []struct {
	name, key string
	scale     float64
}{
	{"runtime.heap.live_mb", "/gc/heap/live:bytes", 1e-6},
	{"runtime.goroutines", "/sched/goroutines:goroutines", 1},
}

var runtimeHistograms = []struct{ name, key string }{
	{"runtime.gc.pause_ms", "/sched/pauses/total/gc:seconds"},
	{"runtime.sched.latency_ms", "/sched/latencies:seconds"},
}

// readRuntime appends the runtime readings to e.
func readRuntime(e *Export) {
	samples := make([]metrics.Sample, 0, len(runtimeGauges)+len(runtimeHistograms))
	for _, g := range runtimeGauges {
		samples = append(samples, metrics.Sample{Name: g.key})
	}
	for _, h := range runtimeHistograms {
		samples = append(samples, metrics.Sample{Name: h.key})
	}
	metrics.Read(samples)
	for i, g := range runtimeGauges {
		if samples[i].Value.Kind() != metrics.KindUint64 {
			continue // not in this Go release
		}
		e.Gauges = append(e.Gauges, GaugePoint{Name: g.name, Value: float64(samples[i].Value.Uint64()) * g.scale})
	}
	for i, h := range runtimeHistograms {
		if s := samples[len(runtimeGauges)+i]; s.Value.Kind() == metrics.KindFloat64Histogram {
			e.Histograms = append(e.Histograms, secondsToMillis(h.name, s.Value.Float64Histogram()))
		}
	}
}

// secondsToMillis re-buckets a runtime histogram of seconds onto
// LatencyBuckets in milliseconds. Each runtime bucket lands whole in the
// bucket of its upper bound, so a quantile is never under-reported, and
// adds its midpoint per observation to the sum (its finite bound, for the
// two open-ended runtime buckets).
func secondsToMillis(name string, h *metrics.Float64Histogram) HistogramPoint {
	p := HistogramPoint{Name: name, Bounds: append([]float64(nil), LatencyBuckets...), Cumulative: make([]int64, len(LatencyBuckets)+1)}
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		lo, hi := h.Buckets[i]*1e3, h.Buckets[i+1]*1e3
		p.Cumulative[sort.SearchFloat64s(LatencyBuckets, hi)] += int64(c)
		v := (lo + hi) / 2
		switch {
		case math.IsInf(lo, -1):
			v = hi
		case math.IsInf(hi, 1):
			v = lo
		}
		p.Sum += float64(c) * v
	}
	for i := 1; i < len(p.Cumulative); i++ {
		p.Cumulative[i] += p.Cumulative[i-1]
	}
	return p
}

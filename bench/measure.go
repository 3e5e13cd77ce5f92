package main

import (
	"runtime"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"diagnet/internal/cluster"
	"diagnet/internal/serving"
	"diagnet/internal/telemetry"
)

// values maps metric names to measured values.
type values map[string]float64

// usage is the process's resource use so far.
type usage struct {
	cpu   time.Duration // user + system, getrusage
	alloc uint64        // MemStats.TotalAlloc
}

func readUsage() usage {
	var ru syscall.Rusage
	// RUSAGE_SELF on the calling process cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
	}
}

// liveHeapMB forces a collection and returns what the heap still holds.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// rep is one repetition of a serving workload.
type rep struct {
	samples []sample
	elapsed time.Duration
	used    usage
}

// measure runs one repetition between two resource readings. Nothing is
// collected between repetitions: each inherits the heap the one before left,
// so the collector's work falls into the repetitions as it would without them.
func measure(run func() ([]sample, time.Duration)) rep {
	before := readUsage()
	samples, elapsed := run()
	after := readUsage()
	return rep{
		samples: samples,
		elapsed: elapsed,
		used:    usage{cpu: after.cpu - before.cpu, alloc: after.alloc - before.alloc},
	}
}

// endToEnd computes the repetition's gated metrics; recall, set-up and the
// live heap are per run and added by the caller.
func (r *rep) endToEnd() values {
	lat := make([]float64, 0, len(r.samples))
	ok := 0
	for _, s := range r.samples {
		ok += s.ok
		if !s.failed {
			lat = append(lat, float64(s.latency.Nanoseconds())/1e6)
		}
	}
	v := values{"latency_p50_ms": median(lat)}
	if ok > 0 {
		v["throughput_per_s"] = float64(ok) / r.elapsed.Seconds()
		v["cpu_ms_per_diagnosis"] = float64(r.used.cpu.Nanoseconds()) / 1e6 / float64(ok)
		v["alloc_kb_per_diagnosis"] = float64(r.used.alloc) / 1024 / float64(ok)
	}
	return v
}

// tally is attempted and failed diagnoses, the contract's two counts.
type tally struct{ attempted, failed int }

// clientLayer pools the generator's view over repetitions and counts the
// diagnoses attempted and failed; perRequest is how many diagnoses one
// request carries.
func clientLayer(reps []rep, perRequest int, sloMs float64) (values, tally) {
	var lat, lag []float64
	var sent, ok, failed, mismatched, missed int
	for i := range reps {
		for _, s := range reps[i].samples {
			sent++
			ms := float64(s.latency.Nanoseconds()) / 1e6
			lag = append(lag, float64(s.lag.Nanoseconds())/1e6)
			ok += s.ok
			mismatched += s.mismatched
			if s.failed {
				failed++
				missed++ // a failure misses any limit
				continue
			}
			lat = append(lat, ms)
			if ms > sloMs {
				missed++
			}
		}
	}
	v := values{
		"client.sent":                float64(sent),
		"client.ok":                  float64(ok),
		"client.failed":              float64(failed),
		"client.mismatched":          float64(mismatched),
		"client.latency_p99_ms":      quantile(lat, 0.99),
		"client.latency_max_ms":      quantile(lat, 1),
		"client.schedule_lag_p99_ms": quantile(lag, 0.99),
	}
	if sent > 0 {
		v["client.slo_miss_share"] = float64(missed) / float64(sent)
	}
	return v, tally{attempted: sent * perRequest, failed: failed*perRequest + mismatched}
}

// counters is a reading of every public counter the per-layer rows of the
// untraced window are differences of.
type counters struct {
	router  cluster.Stats
	engines serving.Stats
	tel     telemetry.Export
	mem     runtime.MemStats
	gcCPU   float64 // /cpu/classes/gc/total:cpu-seconds
	busyCPU float64 // total − idle cpu-seconds
}

func readCounters(st *stack) counters {
	c := counters{router: st.router.Stats(), engines: st.engineStats(), tel: telemetry.Default().Export()}
	runtime.ReadMemStats(&c.mem)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	c.gcCPU = s[0].Value.Float64()
	c.busyCPU = s[1].Value.Float64() - s[2].Value.Float64()
	return c
}

// histMean is the mean of the observations a telemetry histogram gained
// between two exports.
func histMean(before, after *telemetry.Export, name string) float64 {
	a, ok := after.Histogram(name)
	if !ok {
		return 0
	}
	sum, n := a.Sum, a.Count()
	if b, ok := before.Histogram(name); ok {
		sum, n = sum-b.Sum, n-b.Count()
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// layerDeltas turns two counter readings around an untraced window into
// the cluster, serving and runtime rows. routed is the number of requests
// the window sent through the router.
func layerDeltas(before, after *counters, routed int) values {
	r0, r1 := before.router, after.router
	e0, e1 := before.engines, after.engines
	v := values{
		"cluster.losers_canceled":     float64(r1.LosersCanceled - r0.LosersCanceled),
		"cluster.failovers":           float64(r1.Failovers - r0.Failovers),
		"cluster.backpressure":        float64(r1.Backpressure - r0.Backpressure),
		"cluster.scatter_chunks_mean": histMean(&before.tel, &after.tel, "router.scatter.chunks"),
		"serving.batch_size_mean":     histMean(&before.tel, &after.tel, "serving.batch.size"),
		"serving.batch_wait_ms_mean":  histMean(&before.tel, &after.tel, "serving.batch.wait_ms"),
		"serving.served":              float64(e1.Served - e0.Served),
		"serving.shed_full":           float64(e1.ShedFull - e0.ShedFull),
		"serving.shed_expired":        float64(e1.ShedExpired - e0.ShedExpired),
		"serving.shed_canceled":       float64(e1.ShedCanceled - e0.ShedCanceled),
		"runtime.gc_cycles":           float64(after.mem.NumGC - before.mem.NumGC),
		"runtime.gc_pause_total_ms":   float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6,
		"runtime.goroutines":          float64(runtime.NumGoroutine()),
	}
	hedges := r1.Hedges - r0.Hedges
	if routed > 0 {
		v["cluster.hedges_per_request"] = float64(hedges) / float64(routed)
	}
	if hedges > 0 {
		v["cluster.hedge_win_share"] = float64(r1.HedgeWins-r0.HedgeWins) / float64(hedges)
	}
	// PauseNs is a ring of the last 256 pauses.
	first := before.mem.NumGC
	if after.mem.NumGC-first > 256 {
		first = after.mem.NumGC - 256
	}
	var maxPause uint64
	for gc := first; gc < after.mem.NumGC; gc++ {
		maxPause = max(maxPause, after.mem.PauseNs[gc%256])
	}
	v["runtime.gc_pause_max_ms"] = float64(maxPause) / 1e6
	if busy := after.busyCPU - before.busyCPU; busy > 0 {
		v["runtime.gc_cpu_share"] = (after.gcCPU - before.gcCPU) / busy
	}
	return v
}

// heapSampler records the peak of the heap's object bytes at 10 Hz.
type heapSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			h.peak = max(h.peak, s[0].Value.Uint64())
			select {
			case <-t.C:
			case <-h.stop:
				return
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the highest reading.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	h.wg.Wait()
	return float64(h.peak) / 1e6
}

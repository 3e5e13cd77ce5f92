package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"testing"
	"time"

	"diagnet/internal/telemetry"
)

// benchThink is the per-client pause between requests: the benchmark
// models paced load (each client thinks, then calls), so added latency
// shows up as latency instead of vanishing into a closed feedback loop.
const benchThink = time.Millisecond

// scrapeEvery is the scraper cadence in the scrape-on variant —
// deliberately far more aggressive than a production Prometheus (100ms
// vs 15–60s) so the gate prices a worst case, not the steady state.
const scrapeEvery = 10 * time.Millisecond

// runPaced drives fn from c paced clients (same shape as the serving and
// cluster benchmarks) and reports client-observed p50/p99 latency.
func runPaced(b *testing.B, c int, fn func()) {
	b.Helper()
	if b.N < c {
		c = b.N
	}
	lat := make([][]float64, c)
	var wg sync.WaitGroup
	b.ResetTimer()
	for g := 0; g < c; g++ {
		n := b.N / c
		if g == 0 {
			n += b.N % c
		}
		wg.Add(1)
		go func(g, n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g) + 1))
			ls := make([]float64, 0, n)
			for i := 0; i < n; i++ {
				time.Sleep(time.Duration((0.5 + rng.Float64()) * float64(benchThink)))
				start := time.Now()
				fn()
				ls = append(ls, float64(time.Since(start).Nanoseconds())/1e6)
			}
			lat[g] = ls
		}(g, n)
	}
	wg.Wait()
	b.StopTimer()
	var all []float64
	for _, ls := range lat {
		all = append(all, ls...)
	}
	sort.Float64s(all)
	if len(all) > 0 {
		b.ReportMetric(all[len(all)/2], "p50_ms")
		b.ReportMetric(all[len(all)*99/100], "p99_ms")
	}
}

// benchRegistry builds a registry with a production-like metric
// population — the scrape cost scales with family count and histogram
// width, so an empty registry would flatter the exposition path.
func benchRegistry() *telemetry.Registry {
	reg := telemetry.New()
	for i := 0; i < 40; i++ {
		reg.Counter(fmt.Sprintf("bench.counter.%02d", i)).Add(int64(i) * 17)
	}
	for i := 0; i < 10; i++ {
		reg.Gauge(fmt.Sprintf("bench.gauge.%02d", i)).Set(float64(i) * 1.5)
	}
	for i := 0; i < 12; i++ {
		h := reg.Histogram(fmt.Sprintf("bench.latency.%02d", i), telemetry.LatencyBuckets)
		for j := 0; j < 200; j++ {
			h.ObserveExemplar(float64(j%500)/7, fmt.Sprintf("%032d", j))
		}
	}
	return reg
}

// BenchmarkExposition prices what a live scraper costs the request path:
// the same instrumented handler serves 16 paced clients, and the
// scrape-on variant adds a background scraper hitting GET /metrics every
// 10ms. The exposition writer holds no registry-wide lock — counters are
// read atomically point by point — so the only interference is the CPU
// and allocation cost of rendering the text, which is what the CI gate
// bounds: p99(scrape-on) ≤ 1.10 × p99(scrape-off) at c16
// (results/BENCH_obs.json).
func BenchmarkExposition(b *testing.B) {
	for _, scraping := range []bool{false, true} {
		name := "scrape-off"
		if scraping {
			name = "scrape-on"
		}
		b.Run(fmt.Sprintf("%s/c16", name), func(b *testing.B) {
			reg := benchRegistry()
			work := reg.Histogram("http.diagnose.latency_ms", telemetry.LatencyBuckets)
			mux := http.NewServeMux()
			mux.Handle("/v1/diagnose", Instrument(reg, "http", "diagnose",
				http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
					// A stand-in for inference: touch the registry the way
					// the serving path does.
					work.Observe(1.5)
					fmt.Fprint(w, `{"ok":true}`)
				})))
			mux.Handle("/metrics", ExpositionHandler(reg))
			srv := httptest.NewServer(mux)
			defer srv.Close()
			client := srv.Client()

			stop := make(chan struct{})
			var scrapeWG sync.WaitGroup
			if scraping {
				scrapeWG.Add(1)
				go func() {
					defer scrapeWG.Done()
					t := time.NewTicker(scrapeEvery)
					defer t.Stop()
					for {
						select {
						case <-stop:
							return
						case <-t.C:
							resp, err := client.Get(srv.URL + "/metrics")
							if err == nil {
								io.Copy(io.Discard, resp.Body)
								resp.Body.Close()
							}
						}
					}
				}()
			}

			runPaced(b, 16, func() {
				resp, err := client.Get(srv.URL + "/v1/diagnose")
				if err != nil {
					b.Error(err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			})
			close(stop)
			scrapeWG.Wait()
		})
	}
}

// BenchmarkWriteExposition prices one render of a production-size
// registry to the OpenMetrics text format — the per-scrape cost a
// daemon pays when a Prometheus-style scraper reads GET /metrics.
func BenchmarkWriteExposition(b *testing.B) {
	reg := benchRegistry()
	ex := reg.Export()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := writeExposition(io.Discard, &ex); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeExport prices the validated decode of one replica's
// /v1/metrics payload — the federator pays this per replica per sweep.
func BenchmarkDecodeExport(b *testing.B) {
	buf, err := json.Marshal(benchRegistry().Export())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeExport(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkParseExposition prices the text writer's lint over one
// production-size exposition (tests and the fuzzer run it; nothing in
// production does).
func BenchmarkParseExposition(b *testing.B) {
	reg := benchRegistry()
	ex := reg.Export()
	var buf []byte
	{
		w := &sliceWriter{}
		if err := writeExposition(w, &ex); err != nil {
			b.Fatal(err)
		}
		buf = w.b
	}
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseExposition(buf); err != nil {
			b.Fatal(err)
		}
	}
}

type sliceWriter struct{ b []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.b = append(w.b, p...)
	return len(p), nil
}

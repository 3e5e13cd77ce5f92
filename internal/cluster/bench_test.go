package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diagnet/internal/analysis"
	"diagnet/internal/core"
	"diagnet/internal/dataset"
	"diagnet/internal/forest"
	"diagnet/internal/netsim"
)

// benchConcurrency are the client fan-ins the serving paths are measured
// at; results land in results/BENCH_router.json via cmd/bench2json.
var benchConcurrency = []int{1, 16, 64}

var (
	benchOnce  sync.Once
	benchModel *core.Model
	benchTest  *dataset.Dataset
)

// benchFixture trains a paper-scale network (DefaultConfig width) for one
// epoch, mirroring the serving benchmark's reasoning: against the tiny
// test fixture, per-request inference is so cheap that the proxy hop
// dwarfs it and the measured overhead ratio says nothing about a real
// deployment, where inference dominates the hop.
func benchFixture(b *testing.B) (*core.Model, *dataset.Dataset) {
	b.Helper()
	benchOnce.Do(func() {
		w := netsim.NewWorld(netsim.Config{Seed: 1})
		d := dataset.Generate(dataset.GenConfig{
			World:          w,
			NominalSamples: 150,
			FaultSamples:   400,
			Seed:           21,
		})
		train, test := d.Split(0.8, netsim.HiddenLandmarks(), 23)
		cfg := core.DefaultConfig()
		cfg.Epochs = 1 // weights just need realistic shape, not accuracy
		cfg.Forest = forest.Config{Trees: 10, Tree: forest.TreeConfig{MaxDepth: 6}}
		known := []int{netsim.BEAU, netsim.AMST, netsim.SING, netsim.LOND, netsim.FRNK, netsim.TOKY, netsim.SYDN}
		benchModel = core.TrainGeneral(train, known, cfg).Model
		benchTest = test
	})
	return benchModel, benchTest
}

// benchDiagnose returns a degraded-sample request against the bench
// model.
func benchDiagnose(b *testing.B) analysis.DiagnoseRequest {
	b.Helper()
	_, test := benchFixture(b)
	deg := test.Degraded()
	if deg.Len() == 0 {
		b.Fatal("no degraded samples")
	}
	s := &deg.Samples[0]
	return analysis.DiagnoseRequest{
		ServiceID: s.Service,
		Landmarks: test.Layout.Landmarks,
		Features:  s.Features,
	}
}

// benchCluster boots three paper-scale replicas and returns their URLs.
func benchCluster(b *testing.B) []string {
	b.Helper()
	m, _ := benchFixture(b)
	urls := make([]string, 3)
	for i := range urls {
		urls[i] = startRealReplicaWith(b, m).url()
	}
	return urls
}

// benchThink is the per-client pause between requests. Pacing the closed
// loop keeps c16 below CPU saturation on small hosts: at saturation a
// closed loop measures inverse throughput, where any proxy's CPU share
// inflates every percentile by that share, not by the latency it actually
// adds to a request. c64 still drives the fleet past saturation, so the
// overload regime stays covered.
const benchThink = 25 * time.Millisecond

// runClients distributes b.N requests over c client goroutines, each
// posting through fn with jittered think time between requests, and
// reports p50/p99 per-request latency alongside ns/op (which includes
// think time — compare p50/p99 across paths, not ns/op). Any request
// failure fails the benchmark — a router that sheds its way to a good
// p99 is not faster.
func runClients(b *testing.B, c int, fn func() error) {
	b.Helper()
	if b.N < c {
		c = b.N
	}
	// Warm up untimed: establish the client→router→replica connection
	// pools and let the serving engines reach steady state, so the timed
	// p99 measures the path, not per-subbenchmark cold starts (the direct
	// path would otherwise reuse pools warmed by earlier subbenchmarks
	// while every routed run pays fresh TCP setup in its tail).
	var warm sync.WaitGroup
	for g := 0; g < c; g++ {
		warm.Add(1)
		go func() {
			defer warm.Done()
			for i := 0; i < 3; i++ {
				fn()
			}
		}()
	}
	warm.Wait()
	lat := make([][]float64, c)
	var failed atomic.Int64
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
				// Jittered think time desynchronizes the workers so the
				// offered load is a stream, not lockstep waves.
				time.Sleep(time.Duration((0.5 + rng.Float64()) * float64(benchThink)))
				start := time.Now()
				if err := fn(); err != nil {
					failed.Add(1)
				}
				ls = append(ls, float64(time.Since(start).Nanoseconds())/1e6)
			}
			lat[g] = ls
		}(g, n)
	}
	wg.Wait()
	b.StopTimer()
	if n := failed.Load(); n > 0 {
		b.Fatalf("%d/%d requests failed", n, b.N)
	}
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

// post issues one diagnose and drains the response.
func post(client *http.Client, url string, body []byte) error {
	resp, err := client.Post(url+"/v1/diagnose", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("http %d", resp.StatusCode)
	}
	return nil
}

// BenchmarkRouter compares serving paths at matched client fan-in:
//
//	direct       client-side round-robin straight at the 3 replicas — the
//	             same fleet with the routing tier deleted, and the
//	             baseline the overhead gate (routed p99 ≤ 1.15× direct
//	             p99 at c16) is read against
//	direct-1     all load on one replica — informational; on a
//	             CPU-starved host consolidation maximizes micro-batch
//	             density, so this bounds what any 3-way spread (routed or
//	             not) can reach
//	routed       the 3-replica fleet through diagnet-router, hedging off
//	routed-hedge same, with adaptive hedging
//
// Results land in results/BENCH_router.json via cmd/bench2json.
func BenchmarkRouter(b *testing.B) {
	urls := benchCluster(b)
	req := benchDiagnose(b)
	body, err := json.Marshal(&req)
	if err != nil {
		b.Fatal(err)
	}
	// The bench client gets the same fan-in-sized idle pool as the router's
	// outbound transport, so neither path pays client-side handshake churn.
	client := &http.Client{Timeout: 30 * time.Second, Transport: defaultTransport()}

	b.Run("direct", func(b *testing.B) {
		var next atomic.Int64
		for _, c := range benchConcurrency {
			b.Run(fmt.Sprintf("c%d", c), func(b *testing.B) {
				runClients(b, c, func() error {
					i := int(next.Add(1))
					return post(client, urls[i%len(urls)], body)
				})
			})
		}
	})

	b.Run("direct-1", func(b *testing.B) {
		for _, c := range benchConcurrency {
			b.Run(fmt.Sprintf("c%d", c), func(b *testing.B) {
				runClients(b, c, func() error { return post(client, urls[0], body) })
			})
		}
	})

	bench := func(name string, cfg Config) {
		b.Run(name, func(b *testing.B) {
			rt := newTestRouter(b, urls, cfg)
			ts := httptest.NewServer(rt)
			defer ts.Close()
			for _, c := range benchConcurrency {
				b.Run(fmt.Sprintf("c%d", c), func(b *testing.B) {
					runClients(b, c, func() error { return post(client, ts.URL, body) })
				})
			}
		})
	}
	bench("routed", Config{HedgeAfter: -1})
	bench("routed-hedge", Config{}) // adaptive hedging (attempt-latency p90)
}

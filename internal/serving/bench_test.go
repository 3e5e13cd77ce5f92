package serving

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"diagnet/internal/core"
	"diagnet/internal/dataset"
	"diagnet/internal/forest"
	"diagnet/internal/netsim"
)

// benchConcurrency are the client fan-ins both serving paths are measured
// at; results land in results/BENCH_serving.json via cmd/bench2json.
var benchConcurrency = []int{1, 16, 64}

var (
	benchOnce  sync.Once
	benchModel *core.Model
	benchTest  *dataset.Dataset
)

// benchFixture trains a paper-scale network (DefaultConfig width: 24
// filters, 512/128 hidden) for one epoch. The tiny test fixture would
// understate batching: with toy weight matrices everything sits in L1 and
// per-request inference is already cheap, whereas at deployment width the
// fused pass streams each weight matrix once per micro-batch instead of
// once per request, which is the effect the benchmark is measuring.
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

// benchRequest returns a degraded sample request against the bench model.
func benchRequest(b *testing.B) *Request {
	b.Helper()
	_, test := benchFixture(b)
	deg := test.Degraded()
	if deg.Len() == 0 {
		b.Fatal("no degraded samples")
	}
	s := &deg.Samples[0]
	return &Request{ServiceID: s.Service, Layout: test.Layout, Features: s.Features}
}

// runConcurrent distributes b.N diagnoses over c client goroutines and
// reports the p99 per-request latency alongside the standard ns/op
// throughput number. ns/op here is wall time over total requests, so lower
// ns/op at the same concurrency means higher sustained throughput.
func runConcurrent(b *testing.B, c int, fn func()) {
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
			ls := make([]float64, 0, n)
			for i := 0; i < n; i++ {
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
		b.ReportMetric(all[len(all)*99/100], "p99_ms")
	}
}

// BenchmarkServeDirect is the pre-engine serving path: one shared model
// behind a mutex, one forward/backward pass per request — exactly what
// analysis.Server did before the serving engine existed. The mutex is not
// a strawman: a Model is not safe for concurrent Diagnose, so a single
// shared model must serialize.
func BenchmarkServeDirect(b *testing.B) {
	m, _ := benchFixture(b)
	req := benchRequest(b)
	var mu sync.Mutex
	for _, c := range benchConcurrency {
		b.Run(fmt.Sprintf("c%d", c), func(b *testing.B) {
			runConcurrent(b, c, func() {
				mu.Lock()
				m.Diagnose(req.Features, req.Layout)
				mu.Unlock()
			})
		})
	}
}

// BenchmarkServeBatched is the engine path: concurrent submissions are
// coalesced into micro-batches and served with fused forward/backward
// passes, so the network weights stream from memory once per batch instead
// of once per request.
func BenchmarkServeBatched(b *testing.B) {
	m, _ := benchFixture(b)
	req := benchRequest(b)
	for _, c := range benchConcurrency {
		b.Run(fmt.Sprintf("c%d", c), func(b *testing.B) {
			e := New(Config{BatchMax: 64, QueueDepth: 1024, Workers: 1})
			if err := e.Registry().AddModel("bench", m); err != nil {
				b.Fatal(err)
			}
			if err := e.Registry().Promote("bench"); err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() {
				ctx, cancel := context.WithTimeout(context.Background(), DrainTimeout)
				defer cancel()
				e.Close(ctx)
			})
			ctx := context.Background()
			runConcurrent(b, c, func() {
				if _, err := e.SubmitWait(ctx, req); err != nil {
					b.Error(err)
				}
			})
		})
	}
}

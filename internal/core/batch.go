package core

import (
	"runtime"
	"sync"

	"diagnet/internal/probe"
)

// DiagnoseBatch diagnoses many samples in parallel: the samples are
// sharded in contiguous chunks, each diagnosed with one fused batched pass
// on a pooled Session; results come back in input order regardless of
// scheduling. workers ≤ 0 selects GOMAXPROCS.
func (m *Model) DiagnoseBatch(features [][]float64, layout probe.Layout, workers int) []*Diagnosis {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(features) {
		workers = len(features)
	}
	out := make([]*Diagnosis, len(features))
	if len(features) == 0 {
		return out
	}
	// Contiguous chunks keep each worker's fused pass as large as possible
	// (one forward/backward per chunk instead of per sample).
	chunk := (len(features) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(features); lo += chunk {
		hi := min(lo+chunk, len(features))
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := m.acquire()
			defer m.sessions.Put(s)
			copy(out[lo:hi], s.DiagnoseBatch(features[lo:hi], layout))
		}()
	}
	wg.Wait()
	return out
}

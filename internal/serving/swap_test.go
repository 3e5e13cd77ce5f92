package serving

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestHotSwapUnderLoad is the acceptance check for the versioned registry:
// 64 concurrent clients diagnose continuously while a control goroutine
// flips the active version back and forth. Every response must succeed and
// be attributable to exactly one version — "v-plain" serves everything
// from the general model (ModelService -1) and "v-spec" carries a
// specialized model for the probed service (ModelService == ServiceID), so
// a response whose version label and serving model disagree would prove a
// mixed-version batch. Run with -race this also exercises the Promote vs
// Diagnose data race the registry exists to fix.
func TestHotSwapUnderLoad(t *testing.T) {
	m, _ := fixture(t)
	e := New(Config{BatchMax: 8, QueueDepth: 256, Workers: 2})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), DrainTimeout)
		defer cancel()
		if err := e.Close(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	reg := e.Registry()
	if err := reg.AddModel("v-plain", m); err != nil {
		t.Fatal(err)
	}
	req := sampleRequest(t)
	promoteHead(t, reg, "v-spec", req.ServiceID, m)
	if err := reg.Promote("v-plain"); err != nil {
		t.Fatal(err)
	}

	const (
		clients   = 64
		perClient = 8
	)
	var (
		wg      sync.WaitGroup
		stop    atomic.Bool
		byVer   [2]atomic.Int64 // responses served by v-plain / v-spec
		errs    = make(chan error, clients)
		deadCtx = context.Background()
	)
	wg.Add(clients)
	for c := 0; c < clients; c++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				res, err := e.SubmitWait(deadCtx, req)
				if err != nil {
					errs <- fmt.Errorf("diagnose failed mid-swap: %w", err)
					return
				}
				switch {
				case res.Version == "v-plain" && res.ModelService == -1:
					byVer[0].Add(1)
				case res.Version == "v-spec" && res.ModelService == req.ServiceID:
					byVer[1].Add(1)
				default:
					errs <- fmt.Errorf("mixed-version response: version %q served by model %d",
						res.Version, res.ModelService)
					return
				}
			}
		}()
	}

	// Swap continuously while the clients hammer the engine.
	swaps := 0
	var swapperWG sync.WaitGroup
	swapperWG.Add(1)
	go func() {
		defer swapperWG.Done()
		for !stop.Load() {
			v := "v-spec"
			if swaps%2 == 1 {
				v = "v-plain"
			}
			if err := reg.Promote(v); err != nil {
				errs <- err
				return
			}
			swaps++
		}
	}()
	wg.Wait()
	stop.Store(true)
	swapperWG.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if total := byVer[0].Load() + byVer[1].Load(); total != clients*perClient {
		t.Fatalf("attributed %d responses, want %d", total, clients*perClient)
	}
	t.Logf("served %d by v-plain, %d by v-spec across %d swaps",
		byVer[0].Load(), byVer[1].Load(), swaps)
}

package cluster

import (
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestRouterDoubleClose pins the double-Close contract: a router with the
// full observability plane enabled must survive Close being called twice
// (newTestRouter's cleanup always runs after a test's own explicit Close,
// so every such test is a second caller). Before routerObs.close gained
// its sync.Once, the second call panicked on close(ro.stop).
func TestRouterDoubleClose(t *testing.T) {
	rep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusNoContent)
	}))
	defer rep.Close()

	rt := NewRouter([]string{rep.URL}, Config{
		HealthInterval: 10 * time.Millisecond,
		Obs: ObsConfig{
			FederateInterval: 10 * time.Millisecond,
			SLOTarget:        0.999,
		},
	})
	rt.Close()
	rt.Close() // must be a no-op, not a panic
}

// TestRouterCloseWhileReplicaRecovering pins shutdown-while-recovering:
// closing a router whose only replica still answers 503 (mid-recovery)
// must return promptly without stranding the sweeper or the federation
// loop — the package leak check would catch either.
func TestRouterCloseWhileReplicaRecovering(t *testing.T) {
	rep := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "recovering", http.StatusServiceUnavailable)
	}))
	defer rep.Close()

	rt := NewRouter([]string{rep.URL}, Config{
		HealthInterval: 10 * time.Millisecond,
		Obs:            ObsConfig{FederateInterval: 10 * time.Millisecond},
	})
	time.Sleep(30 * time.Millisecond) // let a few sweeps hit the 503

	done := make(chan struct{})
	go func() {
		rt.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Router.Close hung while the replica was recovering")
	}
}

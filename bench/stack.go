package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"diagnet/internal/analysis"
	"diagnet/internal/cluster"
	"diagnet/internal/core"
	"diagnet/internal/serving"
)

// stack is the program under test, booted in-process the way
// internal/soak/replica.go does: two replicas (serving.Engine →
// analysis.Server.Handler() on loopback listeners) behind one
// cluster.Router, with the settings cmd/diagnetd and cmd/diagnet-router
// ship with.
type stack struct {
	servers    []*analysis.Server
	replicas   []*http.Server
	replicaURL []string
	router     *cluster.Router
	routerSrv  *http.Server
	routerURL  string
	client     *http.Client // the load generator's: at most `clients` keep-alive connections per host
	promoteMs  []float64    // Registry.Add + Promote per replica, per-worker warm-up included
}

const numReplicas = 2

// httpServer applies the timeouts both daemons configure.
func httpServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

func listenAndServe(srv *http.Server) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("bench: listen: %w", err)
	}
	go srv.Serve(ln) // returns ErrServerClosed once close() shuts srv down
	return "http://" + ln.Addr().String(), nil
}

// bootStack decodes the bundle into every replica, promotes it, opens the
// listeners, builds the router and returns once the router answers
// /readyz. On error everything already started is closed.
func bootStack(blob []byte, clients int) (_ *stack, err error) {
	s := &stack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	for i := 0; i < numReplicas; i++ {
		// diagnetd's flag defaults.
		engine := serving.New(serving.Config{BatchMax: 32, BatchWait: 2 * time.Millisecond, QueueDepth: 256})
		srv := analysis.NewServerFromEngine(engine)
		s.servers = append(s.servers, srv)
		bundle, err := core.LoadBundle(bytes.NewReader(blob))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		if err := engine.Registry().Add("boot", bundle); err != nil {
			return nil, err
		}
		if err := engine.Registry().Promote("boot"); err != nil {
			return nil, err
		}
		s.promoteMs = append(s.promoteMs, float64(time.Since(t0).Microseconds())/1e3)
		srv.SetReady(true)
		hs := httpServer(srv.Handler())
		url, err := listenAndServe(hs)
		if err != nil {
			return nil, err
		}
		s.replicas = append(s.replicas, hs)
		s.replicaURL = append(s.replicaURL, url)
	}
	// diagnet-router's flag defaults: adaptive hedging, affinity on.
	s.router = cluster.NewRouter(s.replicaURL, cluster.Config{
		HealthInterval: 500 * time.Millisecond,
		AttemptTimeout: 30 * time.Second,
		Obs:            cluster.ObsConfig{FederateInterval: 15 * time.Second},
	})
	s.routerSrv = httpServer(s.router)
	if s.routerURL, err = listenAndServe(s.routerSrv); err != nil {
		return nil, err
	}
	s.client = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: clients, MaxIdleConnsPerHost: clients},
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := s.client.Get(s.routerURL + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusNoContent {
				return s, nil
			}
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("bench: router not ready after 10s (last error: %v)", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// close tears the stack down in reverse dependency order and waits for
// every goroutine it owns; safe on a partially booted stack.
func (s *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	if s.routerSrv != nil {
		s.routerSrv.Shutdown(ctx)
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, hs := range s.replicas {
		hs.Shutdown(ctx)
	}
	for _, srv := range s.servers {
		srv.Close() // drains the engine
	}
	// The router proxies over http.DefaultTransport, as the daemon does.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// engineStats sums the admission counters of both replicas.
func (s *stack) engineStats() serving.Stats {
	var sum serving.Stats
	for _, srv := range s.servers {
		st := srv.Engine().Stats()
		sum.Served += st.Served
		sum.ShedFull += st.ShedFull
		sum.ShedExpired += st.ShedExpired
		sum.ShedCanceled += st.ShedCanceled
	}
	return sum
}

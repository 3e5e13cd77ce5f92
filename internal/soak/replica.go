package soak

import (
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"diagnet/internal/analysis"
	"diagnet/internal/core"
	"diagnet/internal/obs"
	"diagnet/internal/telemetry"
)

// replica is one in-process diagnetd: the stack analysis.Open builds —
// the boot order the daemon ships — behind an HTTP listener on a stable
// loopback address, with its OWN telemetry registry so the
// federation-exactness invariant sums genuinely distinct sources. Only
// the schedule's goroutine touches it, except up, which the resource
// sampler reads.
type replica struct {
	index int
	opt   analysis.Options
	reg   *telemetry.Registry
	addr  string

	srv     *analysis.Server // nil once shut down
	httpSrv *http.Server     // nil while killed
	up      atomic.Bool      // serving: set by boot, cleared by kill
}

// startReplica boots a replica on an ephemeral loopback port.
func startReplica(index int, opt analysis.Options) (*replica, error) {
	r := &replica{index: index, opt: opt, reg: telemetry.New()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("soak: replica %d listen: %w", index, err)
	}
	r.addr = ln.Addr().String()
	return r, r.boot(ln)
}

// boot opens the stack and serves it on ln, which it owns.
func (r *replica) boot(ln net.Listener) error {
	opt := r.opt
	opt.Bundle = core.NewBundle(opt.Bundle.General) // a registry may edit its bundle: one per boot
	srv, err := analysis.Open(opt)
	if err != nil {
		ln.Close()
		return fmt.Errorf("soak: replica %d: %w", r.index, err)
	}

	// The analysis handlers record into the process-global registry
	// (useless for federation when every replica shares the process), so
	// the federated routes are counted here, into this replica's own.
	inner := srv.Handler()
	mux := http.NewServeMux()
	mux.Handle("/v1/diagnose", obs.Instrument(r.reg, "http", "diagnose", inner.ServeHTTP))
	mux.Handle("/v1/diagnose-batch", obs.Instrument(r.reg, "http", "diagnose_batch", inner.ServeHTTP))
	mux.Handle("GET /v1/metrics", obs.MetricsHandler(r.reg))
	mux.Handle("/", inner)

	r.srv, r.httpSrv = srv, &http.Server{Handler: mux}
	go r.httpSrv.Serve(ln)
	r.up.Store(true)
	return nil
}

// url returns the replica's stable base URL.
func (r *replica) url() string { return "http://" + r.addr }

// checkpoint compacts the replica's state journal — the SIGHUP path.
// No-op after a failed restart.
func (r *replica) checkpoint() error {
	if r.srv == nil {
		return nil
	}
	_, err := r.srv.Checkpoint()
	return err
}

// kill abruptly closes the listener and every active connection — what
// the router sees when the process dies. The stack stays allocated (a
// real crash frees it by exiting; in-process the restart reclaims it).
// Idempotent.
func (r *replica) kill() {
	r.up.Store(false)
	if r.httpSrv != nil {
		r.httpSrv.Close()
		r.httpSrv = nil
	}
}

// restart closes the killed stack (the in-process stand-in for process
// exit) and boots a fresh one on the same address, replaying the journal.
// No-op when already up.
func (r *replica) restart() error {
	if r.httpSrv != nil {
		return nil
	}
	r.shutdown()
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		if ln, err = net.Listen("tcp", r.addr); err == nil {
			return r.boot(ln)
		}
		time.Sleep(20 * time.Millisecond)
	}
	return fmt.Errorf("soak: replica %d rebind %s: %w", r.index, r.addr, err)
}

// shutdown closes listener and stack for good. Idempotent.
func (r *replica) shutdown() error {
	r.kill()
	if r.srv == nil {
		return nil
	}
	srv := r.srv
	r.srv = nil
	return srv.Close()
}

package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diagnet/internal/analysis"
	"diagnet/internal/core"
	"diagnet/internal/dataset"
	"diagnet/internal/forest"
	"diagnet/internal/netsim"
	"diagnet/internal/serving"
)

var (
	fixtureOnce  sync.Once
	fixtureModel *core.Model
	fixtureTest  *dataset.Dataset
)

// fixture trains one tiny model for the whole test package (same shape as
// the serving and analysis fixtures).
func fixture(t testing.TB) (*core.Model, *dataset.Dataset) {
	t.Helper()
	fixtureOnce.Do(func() {
		w := netsim.NewWorld(netsim.Config{Seed: 1})
		d := dataset.Generate(dataset.GenConfig{
			World:          w,
			NominalSamples: 300,
			FaultSamples:   800,
			Seed:           21,
		})
		train, test := d.Split(0.8, netsim.HiddenLandmarks(), 23)
		cfg := core.DefaultConfig()
		cfg.Filters = 6
		cfg.Hidden = []int{24, 12}
		cfg.Epochs = 6
		cfg.Forest = forest.Config{Trees: 10, Tree: forest.TreeConfig{MaxDepth: 6}}
		known := []int{netsim.BEAU, netsim.AMST, netsim.SING, netsim.LOND, netsim.FRNK, netsim.TOKY, netsim.SYDN}
		fixtureModel = core.TrainGeneral(train, known, cfg).Model
		fixtureTest = test
	})
	return fixtureModel, fixtureTest
}

// diagnoseRequest returns a valid degraded-sample request.
func diagnoseRequest(t testing.TB) analysis.DiagnoseRequest {
	t.Helper()
	_, test := fixture(t)
	deg := test.Degraded()
	if deg.Len() == 0 {
		t.Fatal("no degraded samples")
	}
	s := &deg.Samples[0]
	return analysis.DiagnoseRequest{
		ServiceID: s.Service,
		Landmarks: test.Layout.Landmarks,
		Features:  s.Features,
	}
}

// diagnoseBody returns the request as a JSON body.
func diagnoseBody(t testing.TB) []byte {
	t.Helper()
	req := diagnoseRequest(t)
	b, err := json.Marshal(&req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// ---------------------------------------------------------------------------
// Real replica: the diagnetd stack analysis.Open boots, on a loopback
// listener, with kill/restart on a stable address.

type realReplica struct {
	t    testing.TB
	addr string // stable host:port, survives kill/restart
	srv  *analysis.Server

	mu      sync.Mutex
	httpSrv *http.Server
}

// startRealReplica boots a replica on an ephemeral loopback port serving
// the shared tiny fixture model.
func startRealReplica(t testing.TB) *realReplica {
	t.Helper()
	m, _ := fixture(t)
	return startRealReplicaWith(t, m)
}

// startRealReplicaWith boots a replica serving the given model.
func startRealReplicaWith(t testing.TB, m *core.Model) *realReplica {
	t.Helper()
	srv, err := analysis.Open(analysis.Options{
		Bundle:  core.NewBundle(m),
		Serving: serving.Config{BatchMax: 8, QueueDepth: 256},
	})
	if err != nil {
		t.Fatal(err)
	}
	r := &realReplica{t: t, srv: srv}
	t.Cleanup(func() {
		r.kill()
		srv.Close()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	r.addr = ln.Addr().String()
	r.serve(ln)
	return r
}

func (r *realReplica) serve(ln net.Listener) {
	s := &http.Server{Handler: r.srv.Handler()}
	r.mu.Lock()
	r.httpSrv = s
	r.mu.Unlock()
	go s.Serve(ln)
}

// url returns the replica's base URL.
func (r *realReplica) url() string { return "http://" + r.addr }

// kill abruptly closes the listener and every active connection — the
// crash the e2e test injects. Idempotent.
func (r *realReplica) kill() {
	r.mu.Lock()
	s := r.httpSrv
	r.httpSrv = nil
	r.mu.Unlock()
	if s != nil {
		s.Close()
	}
}

// restart brings the replica back on the same address. The port was just
// freed by kill, but give the OS a few tries in case something raced us
// onto it.
func (r *realReplica) restart() {
	r.t.Helper()
	var ln net.Listener
	var err error
	for i := 0; i < 50; i++ {
		if ln, err = net.Listen("tcp", r.addr); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		r.t.Errorf("restart on %s: %v", r.addr, err)
		return
	}
	r.serve(ln)
}

// ---------------------------------------------------------------------------
// Fake replica: a scriptable stand-in for unit tests (backpressure,
// hedging, scatter-gather) where a real model would only add noise.

type fakeReplica struct {
	srv   *httptest.Server
	ready atomic.Bool
	hits  atomic.Int64 // diagnose + batch requests received
}

// newFakeReplica serves /readyz from the ready flag and routes diagnose
// and batch traffic through handle (wrapped however the test likes).
func newFakeReplica(t testing.TB, handle http.Handler) *fakeReplica {
	t.Helper()
	f := &fakeReplica{}
	f.ready.Store(true)
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if !f.ready.Load() {
			http.Error(w, "not ready", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	})
	count := func(w http.ResponseWriter, r *http.Request) {
		f.hits.Add(1)
		handle.ServeHTTP(w, r)
	}
	mux.HandleFunc("/v1/diagnose", count)
	mux.HandleFunc("/v1/diagnose-batch", count)
	mux.HandleFunc("/v1/model", count)
	f.srv = httptest.NewServer(mux)
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeReplica) url() string { return f.srv.URL }

// firstAttempted scripts "the replica the router tries first is the slow /
// loaded one" without predicting placement: of the fakes built from it,
// whichever receives the first request answers through primary from then
// on, and every other one through other.
type firstAttempted struct {
	primary, other http.Handler
	first          atomic.Pointer[fakeReplica]
}

// replica adds one fake to the script.
func (s *firstAttempted) replica(t testing.TB) *fakeReplica {
	var f *fakeReplica
	f = newFakeReplica(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.first.CompareAndSwap(nil, f)
		if s.first.Load() == f {
			s.primary.ServeHTTP(w, r)
		} else {
			s.other.ServeHTTP(w, r)
		}
	}))
	return f
}

// okDiagnose answers every diagnose with a fixed response stamped with
// the given version (so tests can tell replicas apart by body).
func okDiagnose(version string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&analysis.DiagnoseResponse{
			Family:       "congestion",
			ModelService: -1,
			ModelVersion: version,
		})
	}
}

// echoBatch answers a batch by echoing each request's ServiceID into its
// response's ModelService and stamping the serving replica's version —
// enough to verify merge order and chunk placement.
func echoBatch(version string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req analysis.BatchRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := analysis.BatchResponse{
			Responses: make([]*analysis.DiagnoseResponse, len(req.Requests)),
			Errors:    make([]string, len(req.Requests)),
		}
		for i := range req.Requests {
			resp.Responses[i] = &analysis.DiagnoseResponse{
				ModelService: req.Requests[i].ServiceID,
				ModelVersion: version,
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(&resp)
	}
}

// newTestRouter builds a router over the given URLs with a fast health
// sweep and registers its shutdown.
func newTestRouter(t testing.TB, urls []string, cfg Config) *Router {
	t.Helper()
	if cfg.HealthInterval == 0 {
		cfg.HealthInterval = 20 * time.Millisecond
	}
	rt := NewRouter(urls, cfg)
	t.Cleanup(rt.Close)
	return rt
}

// postJSON posts body to the router and returns status + response body.
func postJSON(t testing.TB, client *http.Client, url string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, out
}

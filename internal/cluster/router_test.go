package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"diagnet/internal/analysis"
)

// TestBackpressureHonored: a 429ing replica is parked for its advertised
// Retry-After — the request fails over once, and subsequent requests skip
// the parked replica entirely instead of blindly retrying into it.
func TestBackpressureHonored(t *testing.T) {
	t.Parallel()
	// Whichever replica the router tries first is the loaded one.
	script := &firstAttempted{
		primary: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Retry-After", "30")
			http.Error(w, "shed", http.StatusTooManyRequests)
		}),
		other: okDiagnose("ok"),
	}
	a, b := script.replica(t), script.replica(t)
	rt := newTestRouter(t, []string{a.url(), b.url()}, Config{HedgeAfter: -1})
	ts := httptest.NewServer(rt)
	defer ts.Close()
	body := diagnoseFake(t)

	status, out := postJSON(t, ts.Client(), ts.URL+"/v1/diagnose", body)
	if status != http.StatusOK {
		t.Fatalf("failover request: status %d: %s", status, out)
	}
	loaded, ok := a, b
	if script.first.Load() == b {
		loaded, ok = b, a
	}
	if got := loaded.hits.Load(); got != 1 {
		t.Fatalf("loaded replica hit %d times on first request, want 1", got)
	}
	if s := rt.Stats(); s.Backpressure != 1 {
		t.Errorf("Backpressure = %d, want 1", s.Backpressure)
	}

	// The park must hold: five more requests, zero new hits on the loaded
	// replica.
	for i := 0; i < 5; i++ {
		if status, out := postJSON(t, ts.Client(), ts.URL+"/v1/diagnose", body); status != http.StatusOK {
			t.Fatalf("parked-window request %d: status %d: %s", i, status, out)
		}
	}
	if got := loaded.hits.Load(); got != 1 {
		t.Errorf("parked replica was retried: %d hits, want 1", got)
	}
	if got := ok.hits.Load(); got != 6 {
		t.Errorf("healthy replica served %d requests, want 6", got)
	}
}

// TestAllLoadedPropagates429: when every replica says 429, the client
// gets the 429 (with its Retry-After advice) — each replica tried exactly
// once, never hammered.
func TestAllLoadedPropagates429(t *testing.T) {
	t.Parallel()
	shed := func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		http.Error(w, "shed", http.StatusTooManyRequests)
	}
	a := newFakeReplica(t, http.HandlerFunc(shed))
	b := newFakeReplica(t, http.HandlerFunc(shed))
	rt := newTestRouter(t, []string{a.url(), b.url()}, Config{HedgeAfter: -1})
	ts := httptest.NewServer(rt)
	defer ts.Close()

	resp, err := ts.Client().Post(ts.URL+"/v1/diagnose", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After %q not propagated", got)
	}
	if a.hits.Load() != 1 || b.hits.Load() != 1 {
		t.Errorf("hits a=%d b=%d, want exactly one each", a.hits.Load(), b.hits.Load())
	}
	if s := rt.Stats(); s.Backpressure != 2 {
		t.Errorf("Backpressure = %d, want 2", s.Backpressure)
	}
}

// TestFailoverOn5xx: a replica answering 500 is failed over transparently
// and the outcome feeds its breaker.
func TestFailoverOn5xx(t *testing.T) {
	t.Parallel()
	bad := newFakeReplica(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "boom", http.StatusInternalServerError)
	}))
	// Slower than any loopback probe, so once it has answered a request the
	// latency tiebreak ranks the instantly-failing replica first.
	good := newFakeReplica(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
		okDiagnose("good")(w, r)
	}))
	rt := newTestRouter(t, []string{bad.url(), good.url()}, Config{HedgeAfter: -1})
	ts := httptest.NewServer(rt)
	defer ts.Close()

	// Every client call must succeed, whichever replica is tried first.
	body := diagnoseFake(t)
	for i := 0; i < 10; i++ {
		if status, out := postJSON(t, ts.Client(), ts.URL+"/v1/diagnose", body); status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status, out)
		}
	}
	if bad.hits.Load() == 0 {
		t.Fatal("the failing replica was never tried")
	}
	if s := rt.Stats(); s.Failovers == 0 {
		t.Errorf("Failovers = 0 after %d hits on a 500ing replica", bad.hits.Load())
	}
}

// diagnoseFake is a minimal body fake replicas accept (they don't
// validate).
func diagnoseFake(t testing.TB) []byte {
	t.Helper()
	b, err := json.Marshal(analysis.DiagnoseRequest{ServiceID: 1, Landmarks: []int{0}, Features: []float64{1}})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestScatterGatherMergesInOrder: a 20-request batch over two replicas
// (at most ceil(20/8) = 3 chunks, one per replica: 2) comes back as one
// in-order response, with both replicas doing a chunk.
func TestScatterGatherMergesInOrder(t *testing.T) {
	t.Parallel()
	a := newFakeReplica(t, echoBatch("a"))
	b := newFakeReplica(t, echoBatch("b"))
	rt := newTestRouter(t, []string{a.url(), b.url()}, Config{HedgeAfter: -1})
	ts := httptest.NewServer(rt)
	defer ts.Close()

	const n = 20
	var req analysis.BatchRequest
	for i := 0; i < n; i++ {
		req.Requests = append(req.Requests, analysis.DiagnoseRequest{ServiceID: i, Landmarks: []int{0}, Features: []float64{1}})
	}
	body, _ := json.Marshal(&req)

	// Every batch must merge in order; the both-replicas property is
	// checked eventually — sibling chunks are ranked concurrently, so one
	// batch can legitimately land on a single replica when both chunk
	// goroutines rank before either attempt registers as outstanding.
	deadline := time.Now().Add(5 * time.Second)
	for {
		status, out := postJSON(t, ts.Client(), ts.URL+"/v1/diagnose-batch", body)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, out)
		}
		var resp analysis.BatchResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatal(err)
		}
		if len(resp.Responses) != n || len(resp.Errors) != n {
			t.Fatalf("merged shape %d/%d, want %d/%d", len(resp.Responses), len(resp.Errors), n, n)
		}
		versions := map[string]int{}
		for i, r := range resp.Responses {
			if r == nil {
				t.Fatalf("response %d is null", i)
			}
			if r.ModelService != i {
				t.Fatalf("response %d echoes request %d — merge order broken", i, r.ModelService)
			}
			versions[r.ModelVersion]++
		}
		if len(versions) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("scatter never used both replicas: a=%d b=%d", a.hits.Load(), b.hits.Load())
		}
	}
	if a.hits.Load() == 0 || b.hits.Load() == 0 {
		t.Errorf("scatter used one replica only: a=%d b=%d", a.hits.Load(), b.hits.Load())
	}
}

// TestBatchChunkFailureFailsWhole: if a chunk cannot be served by any
// replica, or comes back without one response and one error slot per
// element, the whole batch fails — no silent partial merges.
func TestBatchChunkFailureFailsWhole(t *testing.T) {
	t.Parallel()
	reply := func(status int, body string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(status)
			io.WriteString(w, body)
		}
	}
	for _, tc := range []struct {
		name   string
		handle http.HandlerFunc
		want   int
	}{
		{"5xx", reply(http.StatusInternalServerError, "boom"), http.StatusInternalServerError},
		{"short responses", reply(http.StatusOK, `{"responses":[{},{},{}],"errors":["","","",""]}`), http.StatusServiceUnavailable},
		{"short errors", reply(http.StatusOK, `{"responses":[{},null,{},{}],"errors":[""]}`), http.StatusServiceUnavailable},
		{"not JSON", reply(http.StatusOK, `{"responses":[`), http.StatusServiceUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newFakeReplica(t, tc.handle)
			b := newFakeReplica(t, tc.handle)
			rt := newTestRouter(t, []string{a.url(), b.url()}, Config{HedgeAfter: -1})
			ts := httptest.NewServer(rt)
			defer ts.Close()

			body := `{"requests":[{"n":0},{"n":1},{"n":2},{"n":3}]}`
			status, out := postJSON(t, ts.Client(), ts.URL+"/v1/diagnose-batch", []byte(body))
			if status != tc.want {
				t.Fatalf("status %d (%s), want %d", status, out, tc.want)
			}
			if tc.want == http.StatusServiceUnavailable && !strings.Contains(string(out), "malformed batch chunk") {
				t.Errorf("body %q does not name the malformed chunk", out)
			}
		})
	}
}

// TestReadyzTracksPool: the router is ready iff at least one replica is.
func TestReadyzTracksPool(t *testing.T) {
	t.Parallel()
	a := newFakeReplica(t, okDiagnose("a"))
	rt := newTestRouter(t, []string{a.url()}, Config{HedgeAfter: -1, HealthInterval: 10 * time.Millisecond})
	ts := httptest.NewServer(rt)
	defer ts.Close()

	get := func() int {
		resp, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if got := get(); got != http.StatusNoContent {
		t.Fatalf("ready router /readyz = %d", got)
	}
	a.ready.Store(false)
	deadline := time.Now().Add(2 * time.Second)
	for get() != http.StatusServiceUnavailable {
		if time.Now().After(deadline) {
			t.Fatal("router never went unready after its only replica did")
		}
		time.Sleep(5 * time.Millisecond)
	}
	a.ready.Store(true)
	for get() != http.StatusNoContent {
		if time.Now().After(deadline) {
			t.Fatal("router never recovered readiness")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReplicasEndpoint: /v1/replicas reports per-replica status.
func TestReplicasEndpoint(t *testing.T) {
	t.Parallel()
	a := newFakeReplica(t, okDiagnose("a"))
	b := newFakeReplica(t, okDiagnose("b"))
	rt := newTestRouter(t, []string{a.url(), b.url()}, Config{HedgeAfter: -1})
	ts := httptest.NewServer(rt)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/replicas")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got []ReplicaStatus
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("%d replicas reported, want 2", len(got))
	}
	for _, r := range got {
		if !r.Healthy {
			t.Errorf("replica %s reported unhealthy", r.Name)
		}
		if r.Breaker != "closed" {
			t.Errorf("replica %s breaker %q, want closed", r.Name, r.Breaker)
		}
	}
}

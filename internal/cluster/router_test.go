package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"diagnet/internal/analysis"
	"diagnet/internal/landmark"
	"diagnet/internal/resilience"
)

// TestOneAttemptAtATime: a request is on one replica at a time. A slow
// replica is waited for, not raced — the other replica sees nothing — and
// a client that goes away mid-attempt ends the request there: no failover,
// and the replica sees its request canceled.
func TestOneAttemptAtATime(t *testing.T) {
	t.Parallel()
	t.Run("slow primary", func(t *testing.T) {
		t.Parallel()
		script := &firstAttempted{
			primary: landmark.NewFlakyHandler(okDiagnose("slow"), landmark.FlakyConfig{LatencyRate: 1, Latency: 150 * time.Millisecond, Seed: 1}),
			other:   okDiagnose("fast"),
		}
		a, b := script.replica(t), script.replica(t)
		rt := newTestRouter(t, []string{a.url(), b.url()}, Config{})
		ts := httptest.NewServer(rt)
		defer ts.Close()

		start := time.Now()
		status, out := postJSON(t, ts.Client(), ts.URL+"/v1/diagnose", diagnoseFake(t))
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, out)
		}
		if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
			t.Errorf("answer in %v — something dodged the primary's injected 150ms", elapsed)
		}
		var resp analysis.DiagnoseResponse
		if err := json.Unmarshal(out, &resp); err != nil {
			t.Fatal(err)
		}
		if resp.ModelVersion != "slow" {
			t.Errorf("answer came from %q, want the slow primary", resp.ModelVersion)
		}
		second := a
		if script.first.Load() == a {
			second = b
		}
		if got := second.hits.Load(); got != 0 {
			t.Errorf("second replica got %d attempts while the primary was still answering", got)
		}
		if s := rt.Stats(); s != (Stats{}) {
			t.Errorf("Stats %+v, want all zero", s)
		}
	})
	t.Run("client canceled", func(t *testing.T) {
		t.Parallel()
		started, canceled := make(chan struct{}), make(chan struct{})
		script := &firstAttempted{
			primary: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				io.Copy(io.Discard, r.Body) // a server notices a hang-up only once the body is read
				close(started)
				<-r.Context().Done()
				close(canceled)
			}),
			other: okDiagnose("other"),
		}
		a, b := script.replica(t), script.replica(t)
		rt := newTestRouter(t, []string{a.url(), b.url()}, Config{})
		ts, routed := serveRouter(t, rt)

		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			<-started
			cancel()
		}()
		if err := send(ctx, ts, diagnoseFake(t)); err == nil {
			t.Fatal("a canceled request got an answer")
		}
		waitFor(t, canceled, "the replica never saw its request canceled")
		waitFor(t, routed, "the router never finished the canceled request")
		second := a
		if script.first.Load() == a {
			second = b
		}
		if got := second.hits.Load(); got != 0 {
			t.Errorf("second replica got %d attempts for a request whose client went away", got)
		}
		if s := rt.Stats(); s.Failovers != 0 {
			t.Errorf("Failovers = %d after a client cancel, want 0", s.Failovers)
		}
	})
}

// TestCanceledTrialGivesBreakerNoVerdict: a client that goes away during a
// replica's half-open trial says nothing about the replica's health, so
// the trial must not close its breaker or reset its failure streak.
func TestCanceledTrialGivesBreakerNoVerdict(t *testing.T) {
	t.Parallel()
	var hits atomic.Int64
	started := make(chan struct{})
	rep := newFakeReplica(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if hits.Add(1) == 1 {
			http.Error(w, "boom", http.StatusInternalServerError) // opens the breaker
			return
		}
		io.Copy(io.Discard, r.Body) // a server notices a hang-up only once the body is read
		close(started)
		<-r.Context().Done() // the trial hangs until its client goes away
	}))
	var clock atomic.Int64 // fake time, unix nanos
	clock.Store(time.Unix(1700000000, 0).UnixNano())
	rt := newTestRouter(t, []string{rep.url()}, Config{
		BreakerThreshold: 1,
		BreakerCooldown:  time.Minute,
		Now:              func() time.Time { return time.Unix(0, clock.Load()) },
	})
	ts, routed := serveRouter(t, rt)

	if err := send(context.Background(), ts, diagnoseFake(t)); err != nil {
		t.Fatal(err)
	}
	<-routed
	breaker := rt.Pool().Replicas()[0].breaker
	if st := breaker.State(); st != resilience.Open {
		t.Fatalf("breaker %v after the failure, want open", st)
	}
	clock.Add(int64(2 * time.Minute)) // past the cooldown: the next request is the trial

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-started
		cancel()
	}()
	if err := send(ctx, ts, diagnoseFake(t)); err == nil {
		t.Fatal("a canceled request got an answer")
	}
	waitFor(t, routed, "the router never finished the canceled trial")
	for deadline := time.Now().Add(5 * time.Second); rt.Pool().Replicas()[0].Outstanding() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("the canceled trial never settled")
		}
		time.Sleep(time.Millisecond)
	}
	if st := breaker.State(); st == resilience.Closed {
		t.Errorf("a canceled half-open trial closed the breaker")
	}
	if n := breaker.ConsecutiveFailures(); n != 1 {
		t.Errorf("failure streak %d after a canceled trial, want 1", n)
	}
}

// serveRouter serves rt on a test server whose channel receives one value
// each time the router finishes a request, answered or not.
func serveRouter(t testing.TB, rt *Router) (*httptest.Server, <-chan struct{}) {
	t.Helper()
	routed := make(chan struct{}, 16)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rt.ServeHTTP(w, r)
		routed <- struct{}{}
	}))
	t.Cleanup(ts.Close)
	return ts, routed
}

// send posts one diagnose through the router on ctx; the error is the
// client's (a canceled ctx, say), not the status.
func send(ctx context.Context, ts *httptest.Server, body []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/diagnose", bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// waitFor fails the test unless ch yields within five seconds.
func waitFor(t testing.TB, ch <-chan struct{}, msg string) {
	t.Helper()
	select {
	case <-ch:
	case <-time.After(5 * time.Second):
		t.Fatal(msg)
	}
}

// TestFailedAttemptsDoNotFeedLatency: a replica that fails or sheds in
// microseconds must not look like the fastest one to the placement
// tiebreak. Only answers route treats as definitive feed the replica's
// latency EWMA.
func TestFailedAttemptsDoNotFeedLatency(t *testing.T) {
	t.Parallel()
	for name, status := range map[string]int{"5xx": http.StatusInternalServerError, "429": http.StatusTooManyRequests} {
		t.Run(name, func(t *testing.T) {
			bad := newFakeReplica(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				http.Error(w, "no", status)
			}))
			// Slower than any loopback probe, so once it has served a request
			// the tiebreak ranks the instantly-failing replica first.
			good := newFakeReplica(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				time.Sleep(5 * time.Millisecond)
				okDiagnose("good")(w, r)
			}))
			rt := newTestRouter(t, []string{bad.url(), good.url()}, Config{
				HealthInterval:   time.Hour, // the boot sweep seeds both EWMAs; nothing else may move them
				BreakerThreshold: 1000,      // keep the failing replica in rotation
			})
			ts := httptest.NewServer(rt)
			defer ts.Close()
			badRep := rt.Pool().Replicas()[0]
			seeded := badRep.latencyMs()

			for i := 0; i < 15; i++ {
				if status, out := postJSON(t, ts.Client(), ts.URL+"/v1/diagnose", diagnoseFake(t)); status != http.StatusOK {
					t.Fatalf("request %d: status %d: %s", i, status, out)
				}
			}
			if bad.hits.Load() == 0 {
				t.Fatal("the failing replica was never tried")
			}
			if got := badRep.latencyMs(); got != seeded {
				t.Errorf("failing replica's latency EWMA moved %v → %v on %d failed attempts", seeded, got, bad.hits.Load())
			}
		})
	}
}

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
	rt := newTestRouter(t, []string{a.url(), b.url()}, Config{})
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
	rt := newTestRouter(t, []string{a.url(), b.url()}, Config{})
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
	rt := newTestRouter(t, []string{bad.url(), good.url()}, Config{})
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
	rt := newTestRouter(t, []string{a.url(), b.url()}, Config{})
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
		{"error slot not a string", reply(http.StatusOK, `{"responses":[{},{},{},{}],"errors":["","",7,""]}`), http.StatusServiceUnavailable},
		{"bytes after the reply", reply(http.StatusOK, `{"responses":[{},{},{},{}],"errors":["","","",""]} {}`), http.StatusServiceUnavailable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newFakeReplica(t, tc.handle)
			b := newFakeReplica(t, tc.handle)
			rt := newTestRouter(t, []string{a.url(), b.url()}, Config{})
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
	rt := newTestRouter(t, []string{a.url()}, Config{HealthInterval: 10 * time.Millisecond})
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
	rt := newTestRouter(t, []string{a.url(), b.url()}, Config{})
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

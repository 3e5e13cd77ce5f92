package analysis

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diagnet/internal/core"
	"diagnet/internal/serving"
	"diagnet/internal/telemetry"
)

// TestDiagnoseShedsWith429 pins the HTTP admission contract: when the
// serving queue overflows, /v1/diagnose answers 429 with a Retry-After
// header instead of queueing unboundedly, and well-behaved requests still
// succeed. The server is sized down to a single slow-ish worker and a
// one-slot queue so a burst of concurrent posts reliably overflows it.
func TestDiagnoseShedsWith429(t *testing.T) {
	m, _ := fixture(t)
	s, err := Open(Options{Bundle: core.NewBundle(m), Serving: serving.Config{
		BatchMax:   1,
		QueueDepth: 1,
		Workers:    1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("drain: %v", err)
		}
	})

	body, err := json.Marshal(sampleRequest(t))
	if err != nil {
		t.Fatal(err)
	}

	var shed, ok429Header, served atomic.Int64
	deadline := time.Now().Add(10 * time.Second)
	for shed.Load() == 0 && time.Now().Before(deadline) {
		var wg sync.WaitGroup
		for i := 0; i < 32; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				resp, err := http.Post(ts.URL+"/v1/diagnose", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Error(err)
					return
				}
				defer resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					served.Add(1)
				case http.StatusTooManyRequests:
					shed.Add(1)
					if sec, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && sec >= 1 {
						ok429Header.Add(1)
					}
				default:
					t.Errorf("unexpected status %d", resp.StatusCode)
				}
			}()
		}
		wg.Wait()
	}
	if shed.Load() == 0 {
		t.Fatal("32-way bursts against a 1-slot queue never shed a request")
	}
	if ok429Header.Load() != shed.Load() {
		t.Fatalf("%d sheds but only %d carried a whole-second Retry-After", shed.Load(), ok429Header.Load())
	}
	if served.Load() == 0 {
		t.Fatal("every request was shed; admission control must degrade, not fail closed")
	}
}

// TestDiagnoseAfterCloseReturns503 pins drain semantics at the HTTP layer:
// once the server is closed, diagnoses answer 503 (shutting down), not 400
// or a hang.
func TestDiagnoseAfterCloseReturns503(t *testing.T) {
	m, _ := fixture(t)
	s := NewServer(m)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(sampleRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/diagnose", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", resp.StatusCode)
	}
}

// TestBatchEndpointUsesBlockingAdmission: a batch far larger than the
// queue must still complete fully — the batch handler enqueues through
// blocking admission instead of shedding itself.
func TestBatchEndpointUsesBlockingAdmission(t *testing.T) {
	m, _ := fixture(t)
	s, err := Open(Options{Bundle: core.NewBundle(m), Serving: serving.Config{
		BatchMax:   4,
		QueueDepth: 2,
		Workers:    1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	good := *sampleRequest(t)
	reqs := make([]DiagnoseRequest, 16) // 8x the queue depth
	for i := range reqs {
		reqs[i] = good
	}
	resp, err := NewClient(ts.URL).DiagnoseBatch(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range resp.Responses {
		if r == nil {
			t.Fatalf("batch item %d failed: %s", i, resp.Errors[i])
		}
	}
}

// TestBatchEndpointQueuesItsSamplesBeforeWorkersLook is the regression test
// for the small-batch equilibrium (DESIGN.md §11): workers take what is
// queued and never wait, so a handler that trickles a 64-sample batch in,
// one goroutine per sample, is served as 44–64 tiny passes (measured with
// this test's server). Enqueued in line, 64 same-layout samples on an idle
// two-worker server are two passes of BatchMax 32, and the answers come
// back in request order, invalid samples failing in their own slots without
// spending a queue slot.
//
// The test runs on one P so that the order of events is the handler's and
// not the box's: a worker woken by the first send cannot run until the
// handler blocks, which a handler that enqueues in line does only after the
// last send. The runtime may still preempt the handler mid-enqueue (about
// one batch in 300 under -race ran as 5 passes), so the bound is four
// passes per batch on average over five batches, not two on each.
func TestBatchEndpointQueuesItsSamplesBeforeWorkersLook(t *testing.T) {
	m, test := fixture(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, err := Open(Options{Bundle: core.NewBundle(m), Serving: serving.Config{
		BatchMax:   32,
		QueueDepth: 256,
		Workers:    2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	deg := test.Degraded()
	reqs := make([]DiagnoseRequest, 66)
	want := make([]string, len(reqs))
	for i := range reqs {
		smp := &deg.Samples[i%deg.Len()]
		reqs[i] = DiagnoseRequest{ServiceID: -1, Landmarks: test.Layout.Landmarks, Features: smp.Features, TopK: 1}
		want[i] = test.Layout.FeatureName(m.Diagnose(smp.Features, test.Layout).Ranked()[0])
	}
	reqs[0].Features, reqs[40].Landmarks = reqs[0].Features[:3], nil // 64 valid samples remain

	passRows := telemetry.Default().Histogram("serving.pass.rows", telemetry.SizeBuckets)
	passes, rows := passRows.Count(), passRows.Sum()
	const posts = 5
	for p := 0; p < posts; p++ {
		resp, err := NewClient(ts.URL).DiagnoseBatch(context.Background(), reqs)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range resp.Responses {
			switch {
			case i == 0 || i == 40:
				if r != nil || resp.Errors[i] == "" {
					t.Fatalf("invalid sample %d: response %v, error %q", i, r, resp.Errors[i])
				}
			case r == nil:
				t.Fatalf("sample %d failed: %s", i, resp.Errors[i])
			case r.Causes[0].Name != want[i]:
				t.Fatalf("sample %d answered %q, want %q: responses are out of request order", i, r.Causes[0].Name, want[i])
			}
		}
	}
	if n, sum := passRows.Count()-passes, passRows.Sum()-rows; n > 4*posts || sum != 64*posts {
		t.Fatalf("%d batches of 64 same-layout samples ran as %d passes over %v rows, want at most %d passes over %d",
			posts, n, sum, 4*posts, 64*posts)
	}
}

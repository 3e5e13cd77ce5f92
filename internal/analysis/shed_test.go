package analysis

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"diagnet/internal/core"
	"diagnet/internal/serving"
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
		BatchWait:  time.Millisecond,
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
// queue must still complete fully — the batch handler fans out through
// blocking admission instead of shedding itself.
func TestBatchEndpointUsesBlockingAdmission(t *testing.T) {
	m, _ := fixture(t)
	s, err := Open(Options{Bundle: core.NewBundle(m), Serving: serving.Config{
		BatchMax:   4,
		BatchWait:  time.Millisecond,
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

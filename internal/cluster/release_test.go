package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"diagnet/internal/landmark"
)

// The router's request, chunk and reply bodies are pooled (obs.Buffer).
// These tests hold it to the release rule (DESIGN.md §14): no buffer goes
// back while anything — a transport included — may still read it.

// uniqueBatch is batch b's body of n elements, each marked with its batch
// and index and padded to a length that varies with both, so batches land
// in different buffer size classes.
func uniqueBatch(b, n int) (body []byte, elems []json.RawMessage) {
	parts := make([]string, n)
	elems = make([]json.RawMessage, n)
	for i := range parts {
		parts[i] = fmt.Sprintf(`{"batch":%d,"i":%d,"pad":"%s"}`, b, i, strings.Repeat("x", (b*7+i*13)%200))
		elems[i] = json.RawMessage(parts[i])
	}
	return []byte(`{"requests":[` + strings.Join(parts, ",") + `]}`), elems
}

// oracleReply is the merged reply to an echoed batch as encoding/json
// writes it, through no pool.
func oracleReply(t testing.TB, elems []json.RawMessage) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeRaw(&buf, batchResponse{Responses: elems, Errors: make([]string, len(elems))}); err != nil {
		t.Error(err)
	}
	return buf.Bytes()
}

// lateReader is a transport that fails the first attempt of every batch
// chunk at once and reads that attempt's body only later, on a goroutine
// of its own, as the RoundTripper contract allows. What it finally reads
// must be the bytes the chunk carried when it was handed over, which it
// snapshots through GetBody.
type lateReader struct {
	next    http.RoundTripper
	proceed chan struct{} // the late reads start when closed
	wg      sync.WaitGroup

	mu    sync.Mutex
	seen  map[string]bool // chunks already failed once
	wrong []string
}

func (l *lateReader) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body == nil || req.URL.Path != "/v1/diagnose-batch" {
		return l.next.RoundTrip(req)
	}
	snap, err := req.GetBody()
	if err != nil {
		return nil, err
	}
	want, _ := io.ReadAll(snap)
	snap.Close()
	l.mu.Lock()
	first := !l.seen[string(want)]
	l.seen[string(want)] = true
	l.mu.Unlock()
	if !first {
		return l.next.RoundTrip(req)
	}
	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		defer req.Body.Close()
		<-l.proceed
		got, err := io.ReadAll(req.Body)
		if err != nil || !bytes.Equal(got, want) {
			l.mu.Lock()
			l.wrong = append(l.wrong, fmt.Sprintf("late read %.80q (err %v), want %.80q", got, err, want))
			l.mu.Unlock()
		}
	}()
	return nil, errors.New("injected: attempt failed before its body was read")
}

// TestFailoverLateBodyReadSeesItsChunk: every chunk's first attempt fails
// at once and leaves its body to a reader that runs only after all the
// batches have gone through their failovers. Each late reader still reads
// its own chunk: the chunks' buffer is not reused while a transport holds
// an unclosed body over it.
func TestFailoverLateBodyReadSeesItsChunk(t *testing.T) {
	t.Parallel()
	tr := &lateReader{next: defaultTransport(), proceed: make(chan struct{}), seen: map[string]bool{}}
	a, b := newFakeReplica(t, echoRecorder()), newFakeReplica(t, echoRecorder())
	// A breaker would take the failing replica out of rotation; every
	// attempt here fails only on purpose.
	rt := newTestRouter(t, []string{a.url(), b.url()}, Config{Transport: tr, BreakerThreshold: 1 << 20})
	ts := httptest.NewServer(rt)
	defer ts.Close()

	for k := range 40 {
		body, elems := uniqueBatch(k, 8+k%24)
		status, out := postJSON(t, ts.Client(), ts.URL+"/v1/diagnose-batch", body)
		if status != http.StatusOK || !bytes.Equal(out, oracleReply(t, elems)) {
			t.Fatalf("batch %d: status %d, reply %.200s", k, status, out)
		}
	}
	close(tr.proceed)
	tr.wg.Wait()
	if len(tr.seen) == 0 {
		t.Fatal("no chunk went through the late reader")
	}
	for _, w := range tr.wrong {
		t.Error(w)
	}
}

// TestScatterFlakyReplicaMatchesOracle: concurrent batches over two
// replicas, one of which fails a share of its chunks with a 500 or a reply
// cut off mid-body. Every batch is served, and every merged reply is
// byte-equal to encoding/json's, whatever buffers its chunks and their
// failed attempts went through.
func TestScatterFlakyReplicaMatchesOracle(t *testing.T) {
	t.Parallel()
	flaky := landmark.NewFlakyHandler(echoRecorder(), landmark.FlakyConfig{ErrorRate: 0.25, TruncateRate: 0.15, Seed: 5})
	a, b := newFakeReplica(t, flaky), newFakeReplica(t, echoRecorder())
	rt := newTestRouter(t, []string{a.url(), b.url()}, Config{BreakerThreshold: 1 << 20})
	ts := httptest.NewServer(rt)
	defer ts.Close()

	const clients, batches = 4, 15
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range batches {
				n := c*batches + k
				body, elems := uniqueBatch(n, 1+(n*11)%60)
				status, out, err := postRaw(ts.Client(), ts.URL+"/v1/diagnose-batch", body)
				if err != nil || status != http.StatusOK {
					t.Errorf("batch %d: status %d (%s), err %v", n, status, out, err)
					continue
				}
				if want := oracleReply(t, elems); !bytes.Equal(out, want) {
					t.Errorf("batch %d: merged reply\n got %.300s\nwant %.300s", n, out, want)
				}
			}
		}()
	}
	wg.Wait()
	if flaky.Injected() == 0 {
		t.Error("the flaky replica injected no fault")
	}
}

// TestClusterE2EQuotedErrorSurvivesReuse: a replica's 400 quotes the
// number it could not decode, and the router relays it from a pooled reply
// buffer. Under concurrent traffic that reuses those buffers at once, every
// client still reads the message about its own body — on /v1/diagnose and
// on a batch that fails whole.
func TestClusterE2EQuotedErrorSurvivesReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("e2e cluster test in -short mode")
	}
	a, b := startRealReplica(t), startRealReplica(t)
	rt := newTestRouter(t, []string{a.url(), b.url()}, Config{})
	ts := httptest.NewServer(rt)
	defer ts.Close()
	good := diagnoseBody(t)

	const clients, rounds = 4, 25
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range rounds {
				lit := fmt.Sprintf("%d.%06d", c+1, i)
				bad := `{"service_id":1,"landmarks":[0],"features":[1],"top_k":` + lit + `}`
				route, body := "/v1/diagnose", bad
				if i%2 == 1 {
					route, body = "/v1/diagnose-batch", `{"requests":[`+bad+`]}`
				}
				status, out, err := postRaw(ts.Client(), ts.URL+route, []byte(body))
				if want := "cannot decode number " + lit + " into int"; err != nil || status != http.StatusBadRequest || !strings.Contains(string(out), want) {
					t.Errorf("%s: status %d, body %q, err %v; want 400 quoting %q", route, status, out, err, want)
				}
				if status, out, err := postRaw(ts.Client(), ts.URL+"/v1/diagnose", good); err != nil || status != http.StatusOK {
					t.Errorf("valid diagnose: status %d (%s), err %v", status, out, err)
				}
			}
		}()
	}
	wg.Wait()
}

package analysis

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"
	"time"

	"diagnet/internal/tracing"
)

// traceTreeJSON mirrors the /v1/traces/{id} response for decoding.
type traceTreeJSON struct {
	TraceID string          `json:"trace_id"`
	Spans   []traceNodeJSON `json:"spans"`
}

type traceNodeJSON struct {
	Name     string          `json:"name"`
	Children []traceNodeJSON `json:"children"`
}

// findChain reports whether the forest contains the given span-name chain
// as nested descendants (each link a child, grandchild, ... of the
// previous — intermediate generations are allowed).
func findChain(nodes []traceNodeJSON, chain []string) bool {
	if len(chain) == 0 {
		return true
	}
	for _, n := range nodes {
		rest := chain
		if n.Name == chain[0] {
			rest = chain[1:]
			if len(rest) == 0 {
				return true
			}
		}
		if findChain(n.Children, rest) {
			return true
		}
	}
	return false
}

// TestTraceEndToEnd drives one diagnosis with a caller-supplied W3C
// traceparent and asserts the whole request path is retrievable from
// /v1/traces/{id} as one nested trace: route → queue wait → micro-batch →
// core pipeline → pipeline stages.
func TestTraceEndToEnd(t *testing.T) {
	_, ts := newService(t)

	const traceID = "4bf92f3577b34da6a3ce929d0e0e4736"
	body, err := json.Marshal(sampleRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/diagnose", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+traceID+"-00f067aa0ba902b7-01")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diagnose: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Trace-Id"); got != traceID {
		t.Fatalf("X-Trace-Id = %q, want %q (the caller's trace must continue)", got, traceID)
	}

	// The trace finalizes when the route span ends, which races the
	// response write by a hair — poll briefly.
	var tree traceTreeJSON
	deadline := time.Now().Add(2 * time.Second)
	for {
		r, err := http.Get(ts.URL + "/v1/traces/" + traceID)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode == http.StatusOK {
			err = json.NewDecoder(r.Body).Decode(&tree)
			r.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			break
		}
		r.Body.Close()
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never became retrievable (last status %d)", traceID, r.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if tree.TraceID != traceID {
		t.Fatalf("trace id %q, want %q", tree.TraceID, traceID)
	}
	chain := []string{"http.diagnose", "serving.queue_wait", "serving.batch", "core.diagnose"}
	if !findChain(tree.Spans, chain) {
		raw, _ := json.MarshalIndent(tree, "", "  ")
		t.Fatalf("trace lacks the nested chain %v:\n%s", chain, raw)
	}
	if !findChain(tree.Spans, append(chain, "core.stage.ensemble")) {
		raw, _ := json.MarshalIndent(tree, "", "  ")
		t.Fatalf("core.diagnose span lacks stage children:\n%s", raw)
	}
}

// TestTraceExemplarLoop closes the metrics↔traces loop: after traffic,
// the diagnose route's latency histogram exposes a tail exemplar whose
// trace ID resolves against the trace store. The histogram and the trace
// ring are process globals shared with every other test in this package,
// so the current tail exemplar can predate this test — and its trace may
// have been legitimately evicted by the flood of traces those tests
// produced. The loop guarantee is therefore only checkable when the
// exemplar is one of this test's own requests (whose traces three
// requests cannot have evicted).
func TestTraceExemplarLoop(t *testing.T) {
	_, ts := newService(t)

	ours := make(map[string]bool)
	drive := func() {
		req, err := json.Marshal(sampleRequest(t))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/diagnose", "application/json", bytes.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if id := resp.Header.Get("X-Trace-Id"); id != "" {
			ours[id] = true
		}
	}

	exemplarID := func() string {
		ex := fetchExport(t, ts.URL)
		h, ok := ex.Histogram("http.diagnose.latency_ms")
		if !ok {
			t.Fatal("no http.diagnose.latency_ms histogram in /v1/metrics")
		}
		if h.Exemplar == nil || h.Exemplar.TraceID == "" {
			t.Fatal("diagnose latency histogram has no trace exemplar")
		}
		return h.Exemplar.TraceID
	}

	deadline := time.Now().Add(2 * time.Second)
	stale := ""
	for time.Now().Before(deadline) {
		drive()
		id := exemplarID()
		if !ours[id] {
			stale = id // predates this test; keep driving — a tail
			continue   // observation of ours may displace it
		}
		if _, ok := tracing.Default().Trace(id); ok {
			return
		}
		t.Fatalf("exemplar trace %s from this test not retrievable", id)
	}
	if _, ok := tracing.Default().Trace(stale); ok {
		return // stale but still resolvable: the loop holds
	}
	t.Skipf("tail exemplar %s predates this test and was evicted by earlier tests' traffic; loop not checkable", stale)
}

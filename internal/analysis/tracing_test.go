package analysis

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
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
	chain := []string{"http.diagnose", "serving.submit", "serving.batch", "core.session_diagnose"}
	if !findChain(tree.Spans, chain) {
		raw, _ := json.MarshalIndent(tree, "", "  ")
		t.Fatalf("trace lacks the nested chain %v:\n%s", chain, raw)
	}
	for _, st := range []*tracing.Stage{tracing.NormalizeStage, tracing.InputGradientStage, tracing.ForestStage} {
		if !findChain(tree.Spans, append(chain, st.Name())) {
			raw, _ := json.MarshalIndent(tree, "", "  ")
			t.Fatalf("core.session_diagnose span lacks its %s child:\n%s", st.Name(), raw)
		}
	}
}

// exemplarChildEnv marks the child process TestTraceExemplarLoop runs
// its check in.
const exemplarChildEnv = "DIAGNET_EXEMPLAR_LOOP_CHILD"

// TestTraceExemplarLoop closes the metrics↔traces loop: after traffic,
// the diagnose route's latency histogram exposes a tail exemplar whose
// trace ID resolves against the trace store. The histogram and the trace
// ring are process globals; in this package's process the tail exemplar
// is whichever earlier test's request was slowest, and the flood of
// traces those tests produced may have evicted it. So the check runs in
// a child process running only this test, where every exemplar is one
// of its own requests and none of their traces can have been evicted.
func TestTraceExemplarLoop(t *testing.T) {
	if os.Getenv(exemplarChildEnv) == "" {
		cmd := exec.Command(os.Args[0], "-test.run=^TestTraceExemplarLoop$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(), exemplarChildEnv+"=1")
		out, err := cmd.CombinedOutput()
		if err != nil || !bytes.Contains(out, []byte("--- PASS: TestTraceExemplarLoop")) {
			t.Fatalf("child run of the exemplar loop check: %v\n%s", err, out)
		}
		return
	}

	_, ts := newService(t)
	ours := make(map[string]bool)
	for i := 0; i < 3; i++ {
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
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("diagnose: status %d", resp.StatusCode)
		}
		id := resp.Header.Get("X-Trace-Id")
		if id == "" {
			t.Fatal("diagnose response carries no X-Trace-Id")
		}
		ours[id] = true
	}

	ex := fetchExport(t, ts.URL)
	h, ok := ex.Histogram("http.diagnose.latency_ms")
	if !ok {
		t.Fatal("no http.diagnose.latency_ms histogram in /v1/metrics")
	}
	if h.Exemplar == nil || h.Exemplar.TraceID == "" {
		t.Fatal("diagnose latency histogram has no trace exemplar")
	}
	id := h.Exemplar.TraceID
	if !ours[id] {
		t.Fatalf("tail exemplar %s is none of this process's requests %v", id, ours)
	}
	if _, ok := tracing.Default().Trace(id); !ok {
		t.Fatalf("exemplar trace %s not retrievable", id)
	}
}

// TestClientContinuesCallerTrace: Client.Diagnose carries the caller's
// span as a W3C traceparent, so the service's spans join the caller's
// trace — the agent's round, the route, the batch and the pipeline are
// one trace under the agent's trace ID.
func TestClientContinuesCallerTrace(t *testing.T) {
	_, ts := newService(t)
	ctx, span := tracing.StartSpan(context.Background(), "agent.round")
	traceID := span.TraceID()
	_, err := NewClient(ts.URL).Diagnose(ctx, sampleRequest(t))
	span.End()
	if err != nil {
		t.Fatal(err)
	}
	chain := []string{"agent.round", "http.diagnose", "serving.submit", "serving.batch", "core.session_diagnose"}
	var tree traceTreeJSON
	for deadline := time.Now().Add(2 * time.Second); !findChain(tree.Spans, chain); {
		if time.Now().After(deadline) {
			raw, _ := json.MarshalIndent(tree, "", "  ")
			t.Fatalf("trace %s lacks the nested chain %v:\n%s", traceID, chain, raw)
		}
		time.Sleep(10 * time.Millisecond)
		r, err := http.Get(ts.URL + "/v1/traces/" + traceID)
		if err != nil {
			t.Fatal(err)
		}
		if r.StatusCode == http.StatusOK {
			err = json.NewDecoder(r.Body).Decode(&tree)
		}
		r.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
	}
}

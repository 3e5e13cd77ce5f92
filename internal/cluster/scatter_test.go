package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// chunkRecorder is the fake-replica side of the raw-forwarding tests: it
// records every batch element it is sent, byte for byte, and answers each
// through reply (a nil response is a null slot).
type chunkRecorder struct {
	reply func(elem json.RawMessage) (response json.RawMessage, errText string)

	mu    sync.Mutex
	elems []json.RawMessage // every element received, across chunks
}

func (c *chunkRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	resp := batchResponse{
		Responses: make([]json.RawMessage, len(req.Requests)),
		Errors:    make([]string, len(req.Requests)),
	}
	for i, e := range req.Requests {
		resp.Responses[i], resp.Errors[i] = c.reply(e)
	}
	c.mu.Lock()
	c.elems = append(c.elems, req.Requests...)
	c.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	encodeRaw(w, resp)
}

// take returns what was recorded and resets the recorder.
func (c *chunkRecorder) take() []json.RawMessage {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.elems
	c.elems = nil
	return out
}

func compact(t testing.TB, raw []byte) string {
	t.Helper()
	var buf bytes.Buffer
	if err := json.Compact(&buf, raw); err != nil {
		t.Fatalf("compact %q: %v", raw, err)
	}
	return buf.String()
}

// TestScatterForwardsElementsVerbatim: the router splits and merges on
// element boundaries and reads nothing inside one. A typed round trip
// would respell 1.50e+00, drop the field it does not know and escape the
// '<'; here every element reaches a replica as the client's bytes (less
// insignificant whitespace) and every replica element reaches the client
// as the replica's, null slots and errors[i] in request order.
func TestScatterForwardsElementsVerbatim(t *testing.T) {
	t.Parallel()
	const n = 20
	refused := map[int]bool{3: true, 14: true}
	index := func(elem json.RawMessage) int {
		var v struct {
			ServiceID int `json:"service_id"`
		}
		if err := json.Unmarshal(elem, &v); err != nil {
			t.Errorf("element %q: %v", elem, err)
		}
		return v.ServiceID
	}
	answer := func(i int) string {
		return fmt.Sprintf(`{"model_service":%d,"score":1.50e+00,"note":"<as sent> & kept","later_field":[1,2.0]}`, i)
	}
	rec := &chunkRecorder{reply: func(elem json.RawMessage) (json.RawMessage, string) {
		i := index(elem)
		if refused[i] {
			return nil, fmt.Sprintf("element %d refused <why>", i)
		}
		return json.RawMessage(answer(i)), ""
	}}
	a, b := newFakeReplica(t, rec), newFakeReplica(t, rec)
	rt := newTestRouter(t, []string{a.url(), b.url()}, Config{HedgeAfter: -1})
	ts := httptest.NewServer(rt)
	defer ts.Close()

	sent := make([]string, n)
	for i := range sent {
		sent[i] = fmt.Sprintf(`{ "service_id": %d, "landmarks" : [0],
			"features": [1.50e+00, 2E0, -0.0, 1e-7], "later_field": {"k": "<v> & é"} }`, i)
	}
	body := `{"requests": [` + strings.Join(sent, " ,\n") + `]}`
	status, out := postJSON(t, ts.Client(), ts.URL+"/v1/diagnose-batch", []byte(body))
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, out)
	}

	got := rec.take()
	if len(got) != n {
		t.Fatalf("replicas received %d elements, want each of %d exactly once", len(got), n)
	}
	seen := map[int]bool{}
	for _, e := range got {
		i := index(e)
		if seen[i] {
			t.Errorf("element %d reached a replica twice", i)
		}
		seen[i] = true
		if want := compact(t, []byte(sent[i])); string(e) != want {
			t.Errorf("element %d rewritten in flight:\n got %s\nwant %s", i, e, want)
		}
	}

	var merged batchResponse
	if err := json.Unmarshal(out, &merged); err != nil {
		t.Fatalf("merged reply: %v", err)
	}
	if len(merged.Responses) != n || len(merged.Errors) != n {
		t.Fatalf("merged shape %d/%d, want %d/%d", len(merged.Responses), len(merged.Errors), n, n)
	}
	for i := 0; i < n; i++ {
		wantResp, wantErr := answer(i), ""
		if refused[i] {
			wantResp, wantErr = "null", fmt.Sprintf("element %d refused <why>", i)
		}
		if string(merged.Responses[i]) != wantResp || merged.Errors[i] != wantErr {
			t.Errorf("slot %d: %s / %q, want %s / %q", i, merged.Responses[i], merged.Errors[i], wantResp, wantErr)
		}
	}
	// The escapes of a typed re-encode would survive the decode above; the
	// wire bytes show none were introduced.
	if !bytes.Contains(out, []byte(`"<as sent> & kept"`)) || !bytes.Contains(out, []byte(`refused <why>`)) {
		t.Errorf("merged reply escaped what the replicas sent: %.300s", out)
	}
}

// FuzzRouteBatch throws arbitrary bodies at the batch route over two
// echoing fakes. The router never panics; it answers 400 exactly when
// encoding/json rejects the envelope or the size is outside [1, 1024];
// otherwise every element reaches exactly one replica once and comes back
// in its own slot — which, the fakes echoing each element as its response,
// is the merged reply equal to the request list element for element.
func FuzzRouteBatch(f *testing.F) {
	elems := func(n int, elem func(i int) string) string {
		parts := make([]string, n)
		for i := range parts {
			parts[i] = elem(i)
		}
		return `{"requests":[` + strings.Join(parts, ",") + `]}`
	}
	sample := func(i int) string {
		return fmt.Sprintf(`{"service_id":%d,"landmarks":[0],"features":[1]}`, i)
	}
	f.Add(elems(20, sample))             // TestScatterGatherMergesInOrder's batch
	f.Add(elems(12, func(i int) string { // TestClusterE2E's, with its wrong-width sentinels
		if i == 3 || i == 9 {
			return `{"landmarks":[0],"features":[1]}`
		}
		return `{"service_id":2,"landmarks":[0,1,2],"features":[1.5,2e0,-0.0]}`
	}))
	f.Add(elems(4, func(int) string { return `{"n": 1.50e+00, "s": "<&>"}` }))
	f.Add(`{"requests":[{"service_id":1},{"service_id":2`) // truncated array
	f.Add(`{"requests":[1,"x",null]}`)
	f.Add(elems(maxBatch+1, func(int) string { return `0` }))
	f.Add(`{"requests":[]}`)
	f.Add(`{"requests":null}`)
	f.Add(`{"requests": 7}`)
	f.Add(`[]`)
	f.Add(`{`)

	rec := &chunkRecorder{reply: func(elem json.RawMessage) (json.RawMessage, string) { return elem, "" }}
	a, b := newFakeReplica(f, rec), newFakeReplica(f, rec)
	rt := newTestRouter(f, []string{a.url(), b.url()}, Config{HedgeAfter: -1, HealthInterval: time.Hour})

	f.Fuzz(func(t *testing.T, body string) {
		var want batchRequest
		envelopeErr := json.Unmarshal([]byte(body), &want)
		n := len(want.Requests)

		w := httptest.NewRecorder()
		rt.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/diagnose-batch", strings.NewReader(body)))
		reached := rec.take()

		if envelopeErr != nil || n == 0 || n > maxBatch {
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d for body %.200q, want 400 (envelope error %v, %d elements)", w.Code, body, envelopeErr, n)
			}
			if len(reached) != 0 {
				t.Fatalf("%d elements of a rejected batch reached a replica", len(reached))
			}
			return
		}
		if w.Code != http.StatusOK {
			t.Fatalf("status %d (%s) for a well-formed batch of %d", w.Code, w.Body, n)
		}
		if len(reached) != n {
			t.Fatalf("%d elements reached the replicas, want each of %d exactly once", len(reached), n)
		}
		var merged batchResponse
		if err := json.Unmarshal(w.Body.Bytes(), &merged); err != nil {
			t.Fatalf("merged reply: %v", err)
		}
		if len(merged.Responses) != n || len(merged.Errors) != n {
			t.Fatalf("merged shape %d/%d, want %d/%d", len(merged.Responses), len(merged.Errors), n, n)
		}
		for i, e := range want.Requests {
			if got, want := string(merged.Responses[i]), compact(t, e); got != want {
				t.Fatalf("slot %d carries %q, want element %d as sent, %q", i, got, i, want)
			}
		}
	})
}

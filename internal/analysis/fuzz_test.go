package analysis

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// extremeRow is a request over the fixture's ten landmarks whose every
// feature is 1e300: the network overflows into NaN probabilities, a
// diagnosis JSON cannot carry. It was a 200 with an empty body until the
// handlers refused non-finite diagnoses.
var extremeRow = `{"landmarks":[0,1,2,3,4,5,6,7,8,9],"features":[` + strings.TrimSuffix(strings.Repeat("1e300,", 55), ",") + `]}`

// checkReply fails unless status is a 200 whose body decodes into T, or a
// 400.
func checkReply[T any](t *testing.T, status int, body []byte, req string) {
	t.Helper()
	switch status {
	case http.StatusOK:
		var v T
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("200 for body %q carries %q, which does not decode: %v", req, body, err)
		}
	case http.StatusBadRequest:
	default:
		t.Fatalf("status %d for body %q", status, req)
	}
}

// fuzzHandler builds one Server handler per fuzz target (no TCP listener,
// so executions are cheap; the model itself is the cached fixture) and
// closes it with the target so its engine workers don't outlive the run —
// the package's leak check would flag them.
func fuzzHandler(f *testing.F) http.Handler {
	m, _ := buildFixture()
	srv := NewServer(m)
	f.Cleanup(func() { srv.Close() })
	return srv.Handler()
}

// FuzzHandleDiagnose drives the single-diagnosis JSON decode path directly
// through the handler: any body must yield a 200 that decodes or a 400,
// never a panic or a 500. This is the target that caught the unknown-landmark-region panic
// now guarded by probe.Layout.Validate.
func FuzzHandleDiagnose(f *testing.F) {
	f.Add(`{"service_id":0,"landmarks":[0],"features":[1,2,3,4,5,6,7,8,9,10]}`)
	f.Add(`{"landmarks":[99],"features":[1,2,3,4,5,6,7,8,9,10]}`)                 // unknown region
	f.Add(`{"landmarks":[0,0],"features":[1,2,3,4,5,6,7,8,9,10,11,12,13,14,15]}`) // duplicate
	f.Add(`{"landmarks":[-1],"features":[1,2,3,4,5,6,7,8,9,10]}`)
	f.Add(`{"service_id":9999,"landmarks":[1,2],"features":[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]}`)
	f.Add(`{"top_k":-3,"landmarks":[0],"features":[1,2,3,4,5,6,7,8,9,10]}`)
	f.Add(extremeRow)
	f.Add(`null`)
	f.Add(`[]`)
	f.Add(``)

	h := fuzzHandler(f)
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/diagnose", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		checkReply[DiagnoseResponse](t, rec.Code, rec.Body.Bytes(), body)
	})
}

// FuzzHandleBatch does the same for the batch decode path, which has its
// own envelope parsing and per-item error reporting.
func FuzzHandleBatch(f *testing.F) {
	f.Add(`{"requests":[{"landmarks":[0],"features":[1,2,3,4,5,6,7,8,9,10]}]}`)
	f.Add(`{"requests":[]}`)
	f.Add(`{"requests":null}`)
	f.Add(`{"requests":[{"landmarks":[99],"features":[1,2,3,4,5,6,7,8,9,10]},{"landmarks":[0],"features":[1]}]}`)
	f.Add(`{"requests":[null]}`)
	f.Add(`{"requests":[` + extremeRow + `,{"landmarks":[0],"features":[1,2,3,4,5,6,7,8,9,10]}]}`)
	f.Add(`{"requests": 7}`)
	f.Add(`{`)

	h := fuzzHandler(f)
	f.Fuzz(func(t *testing.T, body string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/diagnose-batch", strings.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		checkReply[BatchResponse](t, rec.Code, rec.Body.Bytes(), body)
	})
}

// FuzzDiagnoseHTTP ensures arbitrary request bodies never crash the
// analysis service — they must yield 400s, or a 200 whose body decodes.
func FuzzDiagnoseHTTP(f *testing.F) {
	f.Add(`{"service_id":0,"landmarks":[0],"features":[1,2,3,4,5,6,7,8,9,10]}`)
	f.Add(`{"landmarks":[],"features":[]}`)
	f.Add(`{`)
	f.Add(`{"landmarks":[0,1,2],"features":[1]}`)
	f.Add(`{"service_id":-5,"landmarks":[99],"features":null}`)
	f.Add(extremeRow)

	// One shared tiny model for all fuzz executions; the Server (not just
	// the listener) is closed so its engine drains.
	var (
		ts  *httptest.Server
		srv *Server
	)
	f.Cleanup(func() {
		if ts != nil {
			ts.Close()
		}
		if srv != nil {
			srv.Close()
		}
	})

	f.Fuzz(func(t *testing.T, body string) {
		if ts == nil {
			m, _ := buildFixture()
			srv = NewServer(m)
			ts = httptest.NewServer(srv.Handler())
		}
		resp, err := http.Post(ts.URL+"/v1/diagnose", "application/json", strings.NewReader(body))
		if err != nil {
			t.Skip("transport error")
		}
		reply, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Skip("transport error")
		}
		checkReply[DiagnoseResponse](t, resp.StatusCode, reply, body)
	})
}

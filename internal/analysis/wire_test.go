package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"diagnet/internal/obs"
)

// FuzzDecodeRequest holds the diagnose routes' decoder to encoding/json:
// on every body, as a single request and as a batch, both accept or both
// reject, and what both accept decodes to reflect.DeepEqual structs whose
// features are Float64bits-equal (DeepEqual takes -0 for 0).
func FuzzDecodeRequest(f *testing.F) {
	for _, seed := range []string{
		`{"service_id":3,"landmarks":[0,1,2],"features":[1.5,2e0,-0.0,1e-7],"top_k":2}`,
		`{"requests":[{"landmarks":[0],"features":[1,2]},null,{"service_id":-1}]}`,
		`  {"requests" : [ ] }  `,
		`{"requests":null}`,
		`null`,
		``,
		`[]`,
		`{"landmarks":[1,2,3],"landmarks":[5],"landmarks":[null,null,null]}`, // a repeated key decodes over the last
		`{"requests":[{"service_id":5,"features":[1,2]}],"requests":[{"top_k":3,"features":[null]}]}`,
		`{"features":[1],"features":[]}`,
		`{"features":[1],"features":null}`,
		`{"SERVICE_ID":1,"Landmarks":[0],"feAtures":[1],"top_\u212a":4}`, // U+212A KELVIN SIGN folds to k
		`{"requeſts":[{}]}`, // U+017F LATIN SMALL LETTER LONG S folds to s
		`{"\u0073ervice_id":7,"\ud83d\ude00":1,"\udead":2}`,
		`{"top_k":1.5}`,
		`{"top_k":1e2}`,
		`{"top_k":-0}`,
		`{"service_id":9223372036854775807}`,
		`{"service_id":9223372036854775808}`,
		`{"features":[1e400]}`,
		`{"features":[1e-400,-1e-400]}`,
		`{"features":[1e300,1e300,1e300,1e300,1e300,1e300,1e300,1e300,1e300,1e300]}`,
		`{"features":["1"]}`,
		`{"landmarks":{}}`,
		`{"service_id":true}`,
		`{"service_id":null,"top_k":null}`,
		`{"unknown":{"a":[1,{"b":"\u00e9\n"}],"c":-1.5E+3},"x":"\x00"}`,
		`{"requests":[1]}`,
		`{"requests":[{}]} trailing`,
		`{"a":01}`,
		`{"a":1.}`,
		`{"a":-}`,
		`{"a":tru}`,
		`{"a":"\x"}`,
		`{"a":1,}`,
		`[1,]`,
		"{\"a\":\"\xff\xfe\"}",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, body string) {
		var want, got DiagnoseRequest
		wantErr, gotErr := json.Unmarshal([]byte(body), &want), decodeDiagnose([]byte(body), &got)
		checkDecoded(t, "request", body, wantErr, gotErr, want, got)

		var wantB, gotB BatchRequest
		wantErr, gotErr = json.Unmarshal([]byte(body), &wantB), decodeBatch([]byte(body), &gotB)
		checkDecoded(t, "batch", body, wantErr, gotErr, wantB, gotB)
	})
}

// TestDecodeRequestNestingLimit: encoding/json refuses a document nested
// deeper than 10,000 arrays and objects, and so does the decoder. (Kept
// out of the fuzz corpus: inputs this large slow its minimizer down.)
func TestDecodeRequestNestingLimit(t *testing.T) {
	for _, body := range []string{
		`{"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
		`{"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
		`{"requests":[{"x":` + strings.Repeat(`{"y":`, 9997) + `1` + strings.Repeat("}", 9997) + `}]}`,
		`{"requests":[{"x":` + strings.Repeat(`{"y":`, 9998) + `1` + strings.Repeat("}", 9998) + `}]}`,
	} {
		var want, got BatchRequest
		wantErr, gotErr := json.Unmarshal([]byte(body), &want), decodeBatch([]byte(body), &got)
		checkDecoded(t, "batch", body, wantErr, gotErr, want, got)
	}
}

// TestRequestBodyReleasedAfterDecode: readRequest hands the body's pooled
// buffer back as soon as it is decoded. What it decoded owns its memory —
// scribbling over every buffer of the body's size class leaves the request
// as it was — and a 400 quoting the body keeps its text while concurrent
// requests reuse the buffer.
func TestRequestBodyReleasedAfterDecode(t *testing.T) {
	body := `{"service_id":3,"landmarks":[0,1,2],"features":[1.5,-2.25,1e3],"top_k":2}`
	var req DiagnoseRequest
	r := httptest.NewRequest(http.MethodPost, "/v1/diagnose", strings.NewReader(body))
	if !readRequest(httptest.NewRecorder(), r, &req, decodeDiagnose) {
		t.Fatal("readRequest refused a valid body")
	}
	for range 8 {
		b := obs.Buffer(len(body))
		b = b[:cap(b)]
		for i := range b {
			b[i] = '9'
		}
		defer obs.Recycle(b)
	}
	want := DiagnoseRequest{ServiceID: 3, Landmarks: []int{0, 1, 2}, Features: []float64{1.5, -2.25, 1e3}, TopK: 2}
	if !reflect.DeepEqual(req, want) {
		t.Fatalf("decoded request changed with the buffer: %+v, want %+v", req, want)
	}

	_, ts := newService(t)
	good, _ := json.Marshal(sampleRequest(t))
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
				for _, p := range []struct {
					route, body string
					status      int
					quote       string
				}{
					{route, body, http.StatusBadRequest, "cannot decode number " + lit + " into int"},
					{"/v1/diagnose", string(good), http.StatusOK, `"family"`},
				} {
					resp, err := http.Post(ts.URL+p.route, "application/json", bytes.NewReader([]byte(p.body)))
					if err != nil {
						t.Error(err)
						return
					}
					out, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode != p.status || !strings.Contains(string(out), p.quote) {
						t.Errorf("%s: status %d, body %q; want %d with %q", p.route, resp.StatusCode, out, p.status, p.quote)
					}
				}
			}
		}()
	}
	wg.Wait()
}

func checkDecoded[T any](t *testing.T, what, body string, wantErr, gotErr error, want, got T) {
	t.Helper()
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("%s %.300q: encoding/json says %v, decoder says %v", what, body, wantErr, gotErr)
	}
	if wantErr != nil {
		return
	}
	if !reflect.DeepEqual(want, got) || !sameBits(want, got) {
		t.Fatalf("%s %.300q:\nencoding/json %+v\ndecoder       %+v", what, body, want, got)
	}
}

// sameBits compares every feature's bit pattern.
func sameBits(a, b any) bool {
	var reqsA, reqsB []DiagnoseRequest
	switch a := a.(type) {
	case DiagnoseRequest:
		reqsA, reqsB = []DiagnoseRequest{a}, []DiagnoseRequest{b.(DiagnoseRequest)}
	case BatchRequest:
		reqsA, reqsB = a.Requests, b.(BatchRequest).Requests
	}
	for i := range reqsA {
		for j, v := range reqsA[i].Features {
			if math.Float64bits(v) != math.Float64bits(reqsB[i].Features[j]) {
				return false
			}
		}
	}
	return true
}

// batch64 is a 64-row batch as the benchmark's load generator sends it:
// encoding/json's bytes, 20 features over three landmarks a row.
func batch64(tb testing.TB) []byte {
	var req BatchRequest
	for i := 0; i < 64; i++ {
		r := DiagnoseRequest{ServiceID: i % 12, Landmarks: []int{0, 1, 2}, Features: make([]float64, 20)}
		for j := range r.Features {
			r.Features[j] = math.Sqrt(float64(i*20+j+1)) * 12.345
		}
		req.Requests = append(req.Requests, r)
	}
	body, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkDecodeBatch64 times the decoder against its encoding/json
// baseline on one 64-row batch body.
func BenchmarkDecodeBatch64(b *testing.B) {
	body := batch64(b)
	for _, c := range []struct {
		name   string
		decode func([]byte, *BatchRequest) error
	}{
		{"decoder", decodeBatch},
		{"encoding-json", func(data []byte, req *BatchRequest) error { return json.Unmarshal(data, req) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				var req BatchRequest
				if err := c.decode(body, &req); err != nil || len(req.Requests) != 64 {
					b.Fatal(err, len(req.Requests))
				}
			}
		})
	}
}

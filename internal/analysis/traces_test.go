package analysis

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"testing"
	"time"

	"diagnet/internal/telemetry"
	"diagnet/internal/tracing"
)

// traceViewGolden is the /v1/traces/{id} JSON of the trace
// TestTraceViewJSON records, normalized: IDs by order of appearance,
// times and durations by placeholders. Members, nesting and value
// encodings are as they are served.
const traceViewGolden = `{"dropped_spans":"absent","duration_ms":"ms","error":true,"root":"http.diagnose","slow":false,"spans":[{"attrs":{"http.method":"POST","http.status":500,"ok":false,"ratio":0.5},"children":[{"children":[{"children":[{"duration_ms":"ms","name":"probe.normalize","parent_id":"id0","span_id":"id1","start":"time","trace_id":"id2"}],"duration_ms":"ms","name":"core.session_diagnose","parent_id":"id3","span_id":"id0","start":"time","trace_id":"id2"}],"duration_ms":"ms","links":[{"span_id":"id4","trace_id":"id5"}],"name":"serving.submit","parent_id":"id6","span_id":"id3","start":"time","trace_id":"id2"}],"duration_ms":"ms","error":"http 500","name":"http.diagnose","parent_id":"id7","span_id":"id6","start":"time","trace_id":"id2"}],"start":"time","trace_id":"id2"}`

// TestTraceViewJSON pins the shape of GET /v1/traces/{id}: a trace that
// continues a remote parent, fails, and carries attributes of four kinds,
// a link and a stage mark is served with the members and value encodings
// it has always had.
func TestTraceViewJSON(t *testing.T) {
	// A fresh trace ID each run: a repeated run's trace would merge into
	// the earlier one's kept record.
	remote := fmt.Sprintf("00-%016x%016x-00f067aa0ba902b7-01", rand.Uint64()|1, rand.Uint64())
	h := http.Header{}
	h.Set(tracing.TraceparentHeader, remote)
	ctx, root := tracing.StartSpan(tracing.Extract(context.Background(), h), "http.diagnose")
	root.SetAttr("http.method", "POST")
	root.SetAttr("http.status", 500)
	root.SetAttr("ok", false)
	root.SetAttr("ratio", 0.5)
	root.SetError(errors.New("http 500"))
	reg := telemetry.New()
	submit := tracing.NewStage(reg, "serving.submit").Start(ctx)
	submit.Span().Link(tracing.SpanContext{TraceID: "0af7651916cd43dd8448eb211c80319c", SpanID: "b7ad6b7169203331"})
	session := tracing.NewStage(reg, "core.session_diagnose").Start(tracing.ContextWithSpan(ctx, submit.Span()))
	session.Mark(tracing.NewStage(reg, "probe.normalize"))
	session.End()
	submit.End()
	root.End()

	w := httptest.NewRecorder()
	handleTraceByID(w, httptest.NewRequest(http.MethodGet, "/v1/traces/"+root.TraceID(), nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body)
	}
	var view map[string]any
	if err := json.Unmarshal(w.Body.Bytes(), &view); err != nil {
		t.Fatal(err)
	}
	if view["trace_id"] != remote[3:35] {
		t.Fatalf("trace_id %v: want the remote parent's %s", view["trace_id"], remote[3:35])
	}
	if _, ok := view["dropped_spans"]; !ok {
		view["dropped_spans"] = "absent"
	}
	ids := map[string]string{}
	normalizeTraceJSON(t, view, ids)
	got, err := json.Marshal(view)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != traceViewGolden {
		t.Fatalf("/v1/traces/{id} changed shape:\n got %s\nwant %s", got, traceViewGolden)
	}
}

// normalizeTraceJSON checks the encoding of every ID, time and duration in
// v and replaces each with a placeholder: IDs are numbered by order of
// first appearance, depth first, keys in sorted order.
func normalizeTraceJSON(t *testing.T, v any, ids map[string]string) {
	hexID := regexp.MustCompile(`^([0-9a-f]{16}|[0-9a-f]{32})$`)
	switch v := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			switch x := v[k]; k {
			case "trace_id", "span_id", "parent_id":
				s, ok := x.(string)
				if !ok || !hexID.MatchString(s) {
					t.Fatalf("%s = %v: want lowercase hex", k, x)
				}
				if _, seen := ids[s]; !seen {
					ids[s] = fmt.Sprintf("id%d", len(ids))
				}
				v[k] = ids[s]
			case "start":
				s, ok := x.(string)
				if _, err := time.Parse(time.RFC3339Nano, s); !ok || err != nil {
					t.Fatalf("start = %v: want an RFC 3339 time", x)
				}
				v[k] = "time"
			case "duration_ms":
				if f, ok := x.(float64); !ok || f < 0 {
					t.Fatalf("duration_ms = %v: want a non-negative number", x)
				}
				v[k] = "ms"
			default:
				normalizeTraceJSON(t, x, ids)
			}
		}
	case []any:
		for _, x := range v {
			normalizeTraceJSON(t, x, ids)
		}
	}
}

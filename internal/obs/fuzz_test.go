package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"diagnet/internal/telemetry"
)

// FuzzParseExposition asserts the strict parser — the text writer's lint —
// never panics, and that any document it accepts survives a write→reparse
// round trip with a byte-identical re-exposition.
func FuzzParseExposition(f *testing.F) {
	reg := telemetry.New()
	reg.Counter("http.diagnose.requests").Add(42)
	reg.Gauge("http.inflight").Set(1.5)
	h := reg.Histogram("http.diagnose.latency_ms", []float64{1, 10, 100})
	h.Observe(0.5)
	h.ObserveExemplar(50, "cafe01")
	var seed bytes.Buffer
	ex := reg.Export()
	if err := writeExposition(&seed, &ex); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add([]byte("# EOF\n"))
	f.Add([]byte("# HELP a A.\n# TYPE a counter\na_total 1\n# EOF\n"))
	f.Add([]byte("# HELP h H.\n# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3.5\nh_count 2\n# EOF\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := ParseExposition(data)
		if err != nil {
			return
		}
		var out1, out2 bytes.Buffer
		if err := writeExposition(&out1, &parsed); err != nil {
			t.Fatalf("write after accept: %v", err)
		}
		re, err := ParseExposition(out1.Bytes())
		if err != nil {
			t.Fatalf("accepted document fails reparse: %v\ninput: %q\nre-exposed:\n%s", err, data, out1.String())
		}
		if err := writeExposition(&out2, &re); err != nil {
			t.Fatalf("re-write: %v", err)
		}
		if !bytes.Equal(out1.Bytes(), out2.Bytes()) {
			t.Fatalf("exposition unstable:\n%s\nvs\n%s", out1.String(), out2.String())
		}
	})
}

// FuzzDecodeExport asserts the federator's payload decoder never panics,
// and that whatever it accepts is a fixed point: re-encoded as the JSON a
// replica would serve (which the fleet view embeds), it is accepted again
// and encodes to the same bytes — one odd replica cannot blank the view.
func FuzzDecodeExport(f *testing.F) {
	reg := telemetry.New()
	reg.Counter("http.diagnose.requests").Add(42)
	reg.Gauge("nn.train.loss").Set(math.NaN())
	h := reg.Histogram("http.diagnose.latency_ms", []float64{1, 10, 100})
	h.Observe(0.5)
	h.ObserveExemplar(50, "cafe01")
	seed, err := json.Marshal(reg.Export())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"counters":[{"name":"a","value":-1}]}`))
	f.Add([]byte(`{"histograms":[{"name":"h","bounds":[10,1],"cumulative":[0,1,1],"sum":1}]}`))
	f.Add([]byte(`{"histograms":[{"name":"h","bounds":[1],"cumulative":[2,1],"sum":"-Inf"}]} trailing`))

	f.Fuzz(func(t *testing.T, data []byte) {
		ex, err := DecodeExport(data)
		if err != nil {
			return
		}
		out1, err := json.Marshal(ex)
		if err != nil {
			t.Fatalf("accepted export does not encode: %v\ninput: %q", err, data)
		}
		re, err := DecodeExport(out1)
		if err != nil {
			t.Fatalf("accepted export fails re-decode: %v\ninput: %q\nre-encoded: %s", err, data, out1)
		}
		out2, err := json.Marshal(re)
		if err != nil || !bytes.Equal(out1, out2) {
			t.Fatalf("export JSON unstable (%v):\n%s\nvs\n%s", err, out1, out2)
		}
	})
}

package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunSmoke runs the tracing walkthrough end to end on a shrunk
// configuration: train, serve, trace one diagnosis across the tiers,
// fetch it back from /v1/traces/{id}.
func TestRunSmoke(t *testing.T) {
	nominalSamples, faultSamples = 150, 400
	filters, hidden, epochs = 4, []int{16, 8}, 2

	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"trace_id=",     // slog correlation stamped the agent's log line
		"http.diagnose", // server route span joined the agent's trace
		"serving.submit",
		"serving.batch",
		"core.session_diagnose",
		"forest.scores",
		"p99 exemplar:",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"
)

// TestRunSmoke runs the Fig. 1 loop against the serving tier (train →
// two replicas booted by analysis.Open → router → agent → diagnose) on a
// shrunk configuration: a degraded round must be diagnosed through the
// router, with at least one ranked cause and the version that served it.
func TestRunSmoke(t *testing.T) {
	nominalSamples, faultSamples = 150, 400
	filters, hidden, epochs = 4, []int{16, 8}, 2

	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatalf("%v\noutput:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"QoE degraded", "diagnosed through the router: family="} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if !regexp.MustCompile(`model_version=\S`).MatchString(out) {
		t.Fatalf("the diagnosis names no model_version:\n%s", out)
	}
	if !regexp.MustCompile(`(?m)^  1\. \S`).MatchString(out) {
		t.Fatalf("the diagnosis ranks no cause:\n%s", out)
	}
}

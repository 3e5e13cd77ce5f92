package main

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// TestRunSmoke runs the observability walkthrough end to end on a shrunk
// configuration: federated fleet view, injected fault burst, burn-rate
// alert, recovery.
func TestRunSmoke(t *testing.T) {
	nominalSamples, faultSamples = 150, 400
	filters, hidden, epochs = 4, []int{16, 8}, 2
	healthyDrive = 400 * time.Millisecond

	var buf bytes.Buffer
	if err := run(&buf); err != nil {
		t.Fatalf("%v\noutput so far:\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"sums exactly",
		"SLO alert FIRING",
		"SLO alert cleared",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

package dataset

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"diagnet/internal/probe"
)

func TestExportCSV(t *testing.T) {
	d := genSmall(t, 40)
	var buf bytes.Buffer
	if err := d.ExportCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != d.Len()+1 {
		t.Fatalf("%d rows for %d samples", len(records), d.Len())
	}
	wantCols := 9 + d.Layout.NumFeatures()
	for i, rec := range records {
		if len(rec) != wantCols {
			t.Fatalf("row %d has %d cols, want %d", i, len(rec), wantCols)
		}
	}
	// Header names the features.
	if records[0][9] != d.Layout.FeatureName(0) {
		t.Fatalf("feature header %q", records[0][9])
	}
	// Degraded rows carry a cause name; nominal rows don't.
	for i := range d.Samples {
		rec := records[i+1]
		if d.Samples[i].Degraded && rec[5] == "" {
			t.Fatal("degraded row without cause name")
		}
		if !d.Samples[i].Degraded && rec[5] != "" {
			t.Fatal("nominal row with cause name")
		}
	}
}

// TestExportCSVUnknownClient pins the live-sample edge: a sample with an
// unknown client region (-1) and unknown cause exports with empty cells
// instead of panicking.
func TestExportCSVUnknownClient(t *testing.T) {
	layout := probe.FullLayout()
	d := &Dataset{Layout: layout}
	d.Append(Sample{
		Features: make([]float64, layout.NumFeatures()),
		Service:  2, Client: -1, Cause: -1,
		FaultRegion: -1, FaultKind: -1,
	})
	var buf bytes.Buffer
	if err := d.ExportCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want header + 1 row, got %d lines", len(lines))
	}
	if !strings.HasPrefix(lines[1], "2,,") {
		t.Fatalf("unknown client not exported empty: %q", lines[1])
	}
}

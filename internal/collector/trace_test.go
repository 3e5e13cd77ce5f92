package collector

import (
	"bytes"
	"context"
	"encoding/gob"
	"strings"
	"testing"

	"diagnet/internal/netsim"
	"diagnet/internal/probe"
)

func simSource() *SimSource {
	return newSimSource(func(tick int64) []netsim.Fault {
		if tick >= 5 {
			return []netsim.Fault{netsim.NewFault(netsim.FaultLoss, netsim.GRAV)}
		}
		return nil
	})
}

func ticksUpTo(n int64) []int64 {
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = int64(i)
	}
	return ts
}

func record(t *testing.T, n int64) *Trace {
	t.Helper()
	tr, err := RecordTrace(context.Background(), simSource(), ticksUpTo(n))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestRecordAndReplayIdentical(t *testing.T) {
	src := simSource()
	tr := record(t, 10)
	if tr.Len() != 10 {
		t.Fatalf("len %d", tr.Len())
	}
	rp := tr.Replay()
	ctx := context.Background()
	for tick := int64(0); tick < 10; tick++ {
		a, _ := src.Round(ctx, tick) // SimSource is deterministic per tick
		b, _ := rp.Round(ctx, tick)
		for j := range a.Features {
			if a.Features[j] != b.Features[j] {
				t.Fatalf("tick %d feature %d differs", tick, j)
			}
		}
		if a.LoadMs != b.LoadMs {
			t.Fatalf("tick %d load %v replays as %v", tick, a.LoadMs, b.LoadMs)
		}
	}
	// The loss fault must appear in the recording.
	if tr.LoadMs[6] < 1.5*tr.LoadMs[0] {
		t.Fatalf("fault tick loads in %.1f ms, a clean one in %.1f ms", tr.LoadMs[6], tr.LoadMs[0])
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tr := record(t, 6)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != tr.Len() || got.Layout().NumFeatures() != tr.Layout().NumFeatures() {
		t.Fatal("round trip lost shape")
	}
	for i := range tr.Features {
		for j := range tr.Features[i] {
			if got.Features[i][j] != tr.Features[i][j] {
				t.Fatal("features differ after round trip")
			}
		}
		if got.LoadMs[i] != tr.LoadMs[i] {
			t.Fatal("load times differ after round trip")
		}
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := LoadTrace(bytes.NewBufferString("zzz")); err == nil {
		t.Fatal("want error")
	}
}

// LoadTrace refuses a file Replay could not replay, and the retired
// format by name.
func TestLoadTraceRefusesMalformed(t *testing.T) {
	row := make([]float64, probe.NewLayout([]int{0}).NumFeatures())
	cases := []struct {
		name, want string
		file       any
	}{
		{"more ticks than rows", "2 ticks, 1 feature rows", &Trace{
			Landmarks: []int{0}, Ticks: []int64{0, 1}, Features: [][]float64{row}, LoadMs: []float64{1, 1}}},
		{"no load times", "0 load times", &Trace{
			Landmarks: []int{0}, Ticks: []int64{0}, Features: [][]float64{row}}},
		{"row wider than the layout", "has 11 features", &Trace{
			Landmarks: []int{0}, Ticks: []int64{0}, Features: [][]float64{append(row, 0)}, LoadMs: []float64{1}}},
		{"tick twice", "tick 3 recorded twice", &Trace{
			Landmarks: []int{0}, Ticks: []int64{3, 3}, Features: [][]float64{row, row}, LoadMs: []float64{1, 1}}},
		{"unknown landmark", "not in the deployment layout", &Trace{
			Landmarks: []int{99}, Ticks: []int64{0}, Features: [][]float64{row}, LoadMs: []float64{1}}},
		{"retired Degraded form", "retired format", &struct {
			Landmarks []int
			Ticks     []int64
			Features  [][]float64
			Degraded  []bool
		}{[]int{0}, []int64{0}, [][]float64{row}, []bool{false}}},
	}
	for _, c := range cases {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(c.file); err != nil {
			t.Fatal(err)
		}
		_, err := LoadTrace(&buf)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want one naming %q", c.name, err, c.want)
		}
	}
}

func TestReplayUnknownTickPanics(t *testing.T) {
	tr := record(t, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	tr.Replay().Round(context.Background(), 99)
}

func TestAppendCopiesAndValidates(t *testing.T) {
	layout := probe.NewLayout([]int{0})
	tr := NewTrace(layout)
	x := make([]float64, layout.NumFeatures())
	tr.Append(0, x, 1)
	x[0] = 42
	if tr.Features[0][0] == 42 {
		t.Fatal("Append must copy")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on wrong width")
		}
	}()
	tr.Append(1, []float64{1}, 1)
}

// A replayed trace drives a collector agent exactly like the source it
// was recorded from.
func TestAgentOverReplay(t *testing.T) {
	tr := record(t, 20)
	live, replayed := NewAgent(simSource(), DegradeRatio), NewAgent(tr.Replay(), DegradeRatio)
	for tick := int64(0); tick < 20; tick++ {
		_, a := step(t, live, tick)
		_, b := step(t, replayed, tick)
		if a != b {
			t.Fatalf("tick %d: source says degraded=%v, replay %v", tick, a, b)
		}
	}
	if _, events := replayed.Stats(); events == 0 {
		t.Fatal("replayed agent saw no degradations")
	}
}

package collector

import (
	"bytes"
	"testing"

	"diagnet/internal/netsim"
	"diagnet/internal/probe"
	"diagnet/internal/services"
)

func simSource() (Source, probe.Layout) {
	w := netsim.NewWorld(netsim.Config{Seed: 1})
	layout := probe.FullLayout()
	svc := services.Service{ID: 0, Kind: services.ImageLocal, Host: netsim.GRAV}
	src := NewSimSource(w, netsim.AMST, svc, layout, func(tick int64) []netsim.Fault {
		if tick >= 5 {
			return []netsim.Fault{netsim.NewFault(netsim.FaultLoss, netsim.GRAV)}
		}
		return nil
	}, 7)
	return src, layout
}

func ticksUpTo(n int64) []int64 {
	ts := make([]int64, n)
	for i := range ts {
		ts[i] = int64(i)
	}
	return ts
}

func TestRecordAndReplayIdentical(t *testing.T) {
	src, layout := simSource()
	tr := RecordTrace(src, layout, ticksUpTo(10))
	if tr.Len() != 10 {
		t.Fatalf("len %d", tr.Len())
	}
	rp := tr.Replay()
	for tick := int64(0); tick < 10; tick++ {
		a := src.Sample(tick) // SimSource is deterministic per tick
		b := rp.Sample(tick)
		for j := range a {
			if a[j] != b[j] {
				t.Fatalf("tick %d feature %d differs", tick, j)
			}
		}
		if src.Degraded(tick) != rp.Degraded(tick) {
			t.Fatalf("tick %d degraded flag differs", tick)
		}
	}
	// The loss fault must appear in the recording.
	if !rp.Degraded(6) {
		t.Fatal("fault tick not degraded in recording")
	}
	if rp.Degraded(0) {
		t.Fatal("clean tick degraded")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	src, layout := simSource()
	tr := RecordTrace(src, layout, ticksUpTo(6))
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
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := LoadTrace(bytes.NewBufferString("zzz")); err == nil {
		t.Fatal("want error")
	}
}

func TestReplayUnknownTickPanics(t *testing.T) {
	src, layout := simSource()
	tr := RecordTrace(src, layout, ticksUpTo(3))
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	tr.Replay().Sample(99)
}

func TestAppendCopiesAndValidates(t *testing.T) {
	layout := probe.NewLayout([]int{0})
	tr := NewTrace(layout)
	x := make([]float64, layout.NumFeatures())
	tr.Append(0, x, false)
	x[0] = 42
	if tr.Features[0][0] == 42 {
		t.Fatal("Append must copy")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("want panic on wrong width")
		}
	}()
	tr.Append(1, []float64{1}, false)
}

// A replayed trace drives a collector agent exactly like the live source.
func TestAgentOverReplay(t *testing.T) {
	src, layout := simSource()
	tr := RecordTrace(src, layout, ticksUpTo(20))
	agent := NewAgent(tr.Replay(), layout.NumFeatures(), Config{Warmup: 3})
	events := 0
	for tick := int64(0); tick < 20; tick++ {
		if _, degraded := agent.Step(tick); degraded {
			events++
		}
	}
	if events == 0 {
		t.Fatal("replayed agent saw no degradations")
	}
}

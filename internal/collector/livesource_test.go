package collector

import (
	"context"
	"math"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"diagnet/internal/landmark"
	"diagnet/internal/netsim"
	"diagnet/internal/probe"
	"diagnet/internal/telemetry"
)

// liveFleet starts one loopback landmark server per handler wrapper
// (nil = plain) and returns their base URLs.
func liveFleet(t *testing.T, wrap ...func(*landmark.Server) *landmark.FlakyHandler) []string {
	t.Helper()
	var urls []string
	for _, w := range wrap {
		s := &landmark.Server{}
		var ts *httptest.Server
		if w == nil {
			ts = httptest.NewServer(s.Handler())
		} else {
			ts = httptest.NewServer(w(s))
		}
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	return urls
}

func newLiveSource(urls []string, regions []int, serviceURL string, roundTimeout time.Duration) *LiveSource {
	return &LiveSource{
		Prober: landmark.NewMultiProber(landmark.MultiProberConfig{
			Prober:       landmark.ProberConfig{Pings: 5, DownloadBytes: 16 << 10, UploadBytes: 8 << 10, Timeout: roundTimeout},
			RoundTimeout: roundTimeout,
		}),
		URLs: urls, Regions: regions, ServiceURL: serviceURL, MinLandmarks: 1,
	}
}

// Sim-to-live parity: a landmark whose every answer is late by D moves
// its RTT feature in the LiveSource round by D ms and leaves the other
// landmarks' RTT within noise — exactly as netsim's service-delay fault
// (also D = 50 ms) moves the same feature of a simulated round.
func TestLiveSourceLatencyParity(t *testing.T) {
	const d = 50 // ms; netsim's service-delay magnitude
	regions := []int{netsim.SEAT, netsim.GRAV, netsim.AMST}
	var slow *landmark.FlakyHandler
	urls := liveFleet(t, nil, func(s *landmark.Server) *landmark.FlakyHandler {
		slow = landmark.NewFlakyHandler(s.Handler(), landmark.FlakyConfig{Seed: 1})
		return slow
	}, nil)
	src := newLiveSource(urls, regions, urls[0]+"/ping", 20*time.Second)
	rtts := func() []float64 {
		r, err := src.Round(context.Background(), 0)
		if err != nil {
			t.Fatal(err)
		}
		layout := probe.NewLayout(r.Landmarks)
		out := make([]float64, len(regions))
		for pos := range regions {
			out[pos] = r.Features[layout.FeatureIndex(pos, probe.MetricRTT)]
		}
		return out
	}
	before := rtts()
	slow.SetConfig(landmark.FlakyConfig{LatencyRate: 1, Latency: d * time.Millisecond, Seed: 1})
	after := rtts()
	for pos, region := range regions {
		delta := after[pos] - before[pos]
		if region == netsim.GRAV {
			if delta < d-5 || delta > d+20 {
				t.Errorf("delayed landmark's RTT moved %.1f ms, want %d ms (−5/+20)", delta, d)
			}
		} else if math.Abs(delta) > 5 {
			t.Errorf("landmark %d's RTT moved %.1f ms, want < 5 ms", region, delta)
		}
	}

	w := netsim.NewWorld(netsim.Config{Seed: 1})
	layout := probe.FullLayout()
	nominal := probe.Prober{W: w}.Sample(netsim.AMST, layout, netsim.Env{}, nil)
	faulty := probe.Prober{W: w}.Sample(netsim.AMST, layout,
		netsim.Env{Faults: []netsim.Fault{netsim.NewFault(netsim.FaultServiceDelay, netsim.GRAV)}}, nil)
	for pos, region := range layout.Landmarks {
		i := layout.FeatureIndex(pos, probe.MetricRTT)
		want := 0.0
		if region == netsim.GRAV {
			want = d
		}
		if delta := faulty[i] - nominal[i]; math.Abs(delta-want) > 1e-9 {
			t.Errorf("netsim service delay moved %s by %.2f, want %.0f", layout.FeatureName(i), delta, want)
		}
	}
}

// A service that never answers costs one round deadline, not the agent.
func TestLiveSourcePageLoadHasDeadline(t *testing.T) {
	urls := liveFleet(t, nil, func(s *landmark.Server) *landmark.FlakyHandler {
		return landmark.NewFlakyHandler(s.Handler(), landmark.FlakyConfig{StallRate: 1, Seed: 1})
	})
	src := newLiveSource(urls[:1], []int{0}, urls[1]+"/ping", 2*time.Second)
	start := time.Now()
	_, err := src.Round(context.Background(), 0)
	if err == nil || !strings.Contains(err.Error(), "page load") {
		t.Fatalf("a stalled service fetch returned %v", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("round took %v under a 2 s deadline", elapsed)
	}
}

// The deployable agent's /metrics counts its rounds: N LiveSource rounds
// move collector.steps by N.
func TestLiveRoundsMoveCollectorSteps(t *testing.T) {
	urls := liveFleet(t, nil, nil)
	agent := NewAgent(newLiveSource(urls, []int{0, 1}, urls[0]+"/ping", 10*time.Second), DegradeRatio)
	steps := func() int64 {
		e := telemetry.Default().Export()
		v, _ := e.Counter("collector.steps")
		return v
	}
	before := steps()
	const n = 3
	for tick := int64(0); tick < n; tick++ {
		if _, _, err := agent.Step(context.Background(), tick); err != nil {
			t.Fatal(err)
		}
	}
	if got := steps() - before; got != n {
		t.Fatalf("collector.steps moved by %d over %d rounds", got, n)
	}
}

package probe

import (
	"math"
	"testing"

	"diagnet/internal/netsim"
	"diagnet/internal/stats"
)

func TestFullLayoutMatchesTableI(t *testing.T) {
	l := FullLayout()
	if l.NumLandmarks() != 10 {
		t.Fatalf("ℓ = %d, want 10", l.NumLandmarks())
	}
	if NumMetrics != 5 {
		t.Fatalf("k = %d, want 5", NumMetrics)
	}
	if l.NumFeatures() != 55 {
		t.Fatalf("m = %d, want 55", l.NumFeatures())
	}
	if NumFamilies != 7 {
		t.Fatalf("c = %d, want 7", NumFamilies)
	}
}

func TestFeatureIndexingRoundTrip(t *testing.T) {
	l := NewLayout([]int{netsim.GRAV, netsim.SING, netsim.SEAT})
	for pos := 0; pos < 3; pos++ {
		for m := Metric(0); m < NumMetrics; m++ {
			i := l.FeatureIndex(pos, m)
			if l.IsLocal(i) {
				t.Fatalf("landmark feature %d marked local", i)
			}
		}
	}
	for li := 0; li < NumLocal; li++ {
		i := l.LocalIndex(li)
		if !l.IsLocal(i) {
			t.Fatalf("local feature %d not marked local", i)
		}
	}
	if l.LandmarkPos(netsim.SING) != 1 || l.LandmarkPos(netsim.TOKY) != -1 {
		t.Fatal("LandmarkPos wrong")
	}
}

func TestFamilyMapping(t *testing.T) {
	l := FullLayout()
	if l.FamilyOf(l.FeatureIndex(3, MetricRTT)) != FamLatency {
		t.Fatal("RTT family")
	}
	if l.FamilyOf(l.FeatureIndex(0, MetricDownBW)) != FamBandwidth {
		t.Fatal("DownBW family")
	}
	if l.FamilyOf(l.FeatureIndex(9, MetricUpBW)) != FamBandwidth {
		t.Fatal("UpBW family")
	}
	if l.FamilyOf(l.LocalIndex(LocalGatewayRTT)) != FamUplink {
		t.Fatal("gateway family")
	}
	if l.FamilyOf(l.LocalIndex(LocalCPU)) != FamLoad {
		t.Fatal("cpu family")
	}
	fams := l.Families()
	if len(fams) != l.NumFeatures() {
		t.Fatal("Families length")
	}
	for _, f := range fams {
		if f == FamNominal {
			t.Fatal("no feature may map to the nominal family")
		}
	}
}

func TestFamilyOfFaultCoversAllKinds(t *testing.T) {
	want := map[netsim.FaultKind]Family{
		netsim.FaultRate:         FamBandwidth,
		netsim.FaultServiceDelay: FamLatency,
		netsim.FaultGatewayDelay: FamUplink,
		netsim.FaultJitter:       FamJitter,
		netsim.FaultLoss:         FamLoss,
		netsim.FaultCPUStress:    FamLoad,
	}
	for k, fam := range want {
		if FamilyOfFault(k) != fam {
			t.Fatalf("fault %v maps to %v, want %v", k, FamilyOfFault(k), fam)
		}
	}
}

func TestCauseOf(t *testing.T) {
	l := FullLayout()
	cause, ok := l.CauseOf(netsim.NewFault(netsim.FaultServiceDelay, netsim.GRAV))
	if !ok || cause != l.FeatureIndex(netsim.GRAV, MetricRTT) {
		t.Fatalf("delay cause = %d ok=%v", cause, ok)
	}
	cause, ok = l.CauseOf(netsim.NewFault(netsim.FaultCPUStress, netsim.SING))
	if !ok || cause != l.LocalIndex(LocalCPU) {
		t.Fatalf("cpu cause = %d ok=%v", cause, ok)
	}
	cause, ok = l.CauseOf(netsim.NewFault(netsim.FaultGatewayDelay, netsim.AMST))
	if !ok || cause != l.LocalIndex(LocalGatewayRTT) {
		t.Fatalf("gateway cause = %d ok=%v", cause, ok)
	}
	// A layout without the fault's landmark cannot represent the cause.
	sub := NewLayout([]int{netsim.AMST})
	if _, ok := sub.CauseOf(netsim.NewFault(netsim.FaultLoss, netsim.GRAV)); ok {
		t.Fatal("cause should be unrepresentable in sub layout")
	}
}

func TestFeatureNames(t *testing.T) {
	l := FullLayout()
	if l.FeatureName(l.FeatureIndex(netsim.GRAV, MetricRTT)) != "GRAV.rtt" {
		t.Fatalf("name = %s", l.FeatureName(l.FeatureIndex(netsim.GRAV, MetricRTT)))
	}
	if l.FeatureName(l.LocalIndex(LocalCPU)) != "local.cpu" {
		t.Fatal("local name wrong")
	}
	// Names come from a table built once: every feature of the full layout
	// and of a 5-landmark one reads as the concatenation it stands for, and
	// naming allocates nothing.
	regions := netsim.DefaultRegions()
	for _, l := range []Layout{l, NewLayout([]int{netsim.BEAU, netsim.AMST, netsim.SING, netsim.SEAT, netsim.LOND})} {
		for i := 0; i < l.NumFeatures(); i++ {
			var want string
			if l.IsLocal(i) {
				want = "local." + [NumLocal]string{"gw-rtt", "gw-jitter", "cpu", "mem", "io"}[i-l.NumLandmarks()*int(NumMetrics)]
			} else {
				want = regions[l.Landmarks[i/int(NumMetrics)]].Name + "." + Metric(i%int(NumMetrics)).String()
			}
			if got := l.FeatureName(i); got != want {
				t.Fatalf("layout %v feature %d: name %q, want %q", l.Landmarks, i, got, want)
			}
		}
		if allocs := testing.AllocsPerRun(10, func() {
			for i := 0; i < l.NumFeatures(); i++ {
				_ = l.FeatureName(i)
			}
		}); allocs != 0 {
			t.Fatalf("FeatureName allocates %v times per layout, want 0", allocs)
		}
	}
}

func TestProjectExtractsSubLayout(t *testing.T) {
	full := FullLayout()
	x := make([]float64, full.NumFeatures())
	for i := range x {
		x[i] = float64(i)
	}
	sub := NewLayout([]int{netsim.SING, netsim.BEAU})
	y := full.Project(x, sub)
	if len(y) != sub.NumFeatures() {
		t.Fatalf("projected len %d", len(y))
	}
	if y[sub.FeatureIndex(0, MetricLoss)] != x[full.FeatureIndex(netsim.SING, MetricLoss)] {
		t.Fatal("projection misaligned for landmarks")
	}
	if y[sub.LocalIndex(LocalIO)] != x[full.LocalIndex(LocalIO)] {
		t.Fatal("projection misaligned for locals")
	}
}

func TestZeroMask(t *testing.T) {
	full := FullLayout()
	x := make([]float64, full.NumFeatures())
	for i := range x {
		x[i] = 1
	}
	known := map[int]bool{}
	for r := 0; r < netsim.NumRegions; r++ {
		known[r] = true
	}
	for _, h := range netsim.HiddenLandmarks() {
		known[h] = false
	}
	y := full.ZeroMask(x, known)
	if y[full.FeatureIndex(netsim.GRAV, MetricRTT)] != 0 {
		t.Fatal("hidden landmark not zeroed")
	}
	if y[full.FeatureIndex(netsim.AMST, MetricRTT)] != 1 {
		t.Fatal("known landmark zeroed")
	}
	if y[full.LocalIndex(LocalCPU)] != 1 {
		t.Fatal("local feature zeroed")
	}
	if x[full.FeatureIndex(netsim.GRAV, MetricRTT)] != 1 {
		t.Fatal("input mutated")
	}
	mask := full.KnownFeatureMask(known)
	if mask[full.FeatureIndex(netsim.SEAT, MetricUpBW)] || !mask[full.LocalIndex(LocalMem)] {
		t.Fatal("KnownFeatureMask wrong")
	}
}

func TestProberSampleReflectsFault(t *testing.T) {
	w := netsim.NewWorld(netsim.Config{Seed: 1})
	p := Prober{W: w}
	l := FullLayout()
	clean := p.Sample(netsim.AMST, l, netsim.Env{Tick: 5}, nil)
	env := netsim.Env{Tick: 5, Faults: []netsim.Fault{netsim.NewFault(netsim.FaultServiceDelay, netsim.GRAV)}}
	faulty := p.Sample(netsim.AMST, l, env, nil)
	i := l.FeatureIndex(netsim.GRAV, MetricRTT)
	if faulty[i]-clean[i] < 40 {
		t.Fatalf("GRAV RTT rose by %v under delay fault", faulty[i]-clean[i])
	}
	j := l.FeatureIndex(netsim.TOKY, MetricRTT)
	if math.Abs(faulty[j]-clean[j]) > 1e-9 {
		t.Fatal("unrelated landmark affected")
	}
}

func TestNormalizerRoundTrip(t *testing.T) {
	w := netsim.NewWorld(netsim.Config{Seed: 2})
	p := Prober{W: w}
	l := FullLayout()
	var samples [][]float64
	for i := 0; i < 200; i++ {
		rng := stats.NewRand(3, int64(i))
		samples = append(samples, p.Sample(rng.Intn(netsim.NumRegions), l, netsim.Env{Tick: int64(i)}, rng))
	}
	n := FitNormalizer(samples, l)
	// Normalized metrics should be roughly zero-mean unit-variance.
	var o stats.Online
	for _, x := range samples {
		y := n.Apply(x, l)
		for pos := 0; pos < l.NumLandmarks(); pos++ {
			o.Add(y[l.FeatureIndex(pos, MetricRTT)])
		}
	}
	if math.Abs(o.Mean()) > 0.05 || math.Abs(o.StdDev()-1) > 0.05 {
		t.Fatalf("normalized RTT mean %v std %v", o.Mean(), o.StdDev())
	}
}

func TestNormalizerWorksAcrossLayouts(t *testing.T) {
	// A normalizer fitted on a 7-landmark layout applies cleanly to the
	// full 10-landmark layout — the extensibility requirement.
	w := netsim.NewWorld(netsim.Config{Seed: 4})
	p := Prober{W: w}
	known := []int{netsim.BEAU, netsim.AMST, netsim.SING, netsim.LOND, netsim.FRNK, netsim.TOKY, netsim.SYDN}
	sub := NewLayout(known)
	var samples [][]float64
	for i := 0; i < 100; i++ {
		rng := stats.NewRand(5, int64(i))
		samples = append(samples, p.Sample(netsim.AMST, sub, netsim.Env{Tick: int64(i)}, rng))
	}
	n := FitNormalizer(samples, sub)
	full := FullLayout()
	x := p.Sample(netsim.AMST, full, netsim.Env{Tick: 1}, nil)
	y := n.Apply(x, full)
	if len(y) != full.NumFeatures() {
		t.Fatal("apply on full layout failed")
	}
	for _, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatal("non-finite normalized feature")
		}
	}
}

func TestNormalizerDegenerateStd(t *testing.T) {
	l := NewLayout([]int{0})
	x := make([]float64, l.NumFeatures()) // all zeros, zero variance
	n := FitNormalizer([][]float64{x, x}, l)
	y := n.Apply(x, l)
	for _, v := range y {
		if math.IsNaN(v) {
			t.Fatal("NaN from degenerate std")
		}
	}
}

func TestMetricAndFamilyStrings(t *testing.T) {
	if MetricRTT.String() != "rtt" || Metric(9).String() == "" {
		t.Fatal("metric names")
	}
	if FamNominal.String() != "nominal" || Family(9).String() == "" {
		t.Fatal("family names")
	}
}

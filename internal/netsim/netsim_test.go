package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"diagnet/internal/stats"
)

func testWorld() *World { return NewWorld(Config{Seed: 1}) }

func TestDefaultRegionsCount(t *testing.T) {
	rs := DefaultRegions()
	if len(rs) != NumRegions || NumRegions != 10 {
		t.Fatalf("want 10 regions, got %d", len(rs))
	}
	providers := map[string]bool{}
	for _, r := range rs {
		providers[r.Provider] = true
		if r.Name == "" {
			t.Fatal("region without name")
		}
	}
	if len(providers) != 4 {
		t.Fatalf("want 4 providers (paper §IV-A), got %d", len(providers))
	}
}

func TestPaperRegionSets(t *testing.T) {
	if got := HiddenLandmarks(); len(got) != 3 || got[0] != EAST || got[1] != GRAV || got[2] != SEAT {
		t.Fatalf("HiddenLandmarks = %v", got)
	}
	if got := FaultRegions(); len(got) != 5 {
		t.Fatalf("FaultRegions = %v", got)
	}
}

func TestHaversineSanity(t *testing.T) {
	rs := DefaultRegions()
	// Gravelines–Amsterdam is a few hundred km; Seattle–Sydney > 10000 km.
	if d := haversineKm(rs[GRAV], rs[AMST]); d < 100 || d > 500 {
		t.Fatalf("GRAV-AMST distance %v km", d)
	}
	if d := haversineKm(rs[SEAT], rs[SYDN]); d < 10000 {
		t.Fatalf("SEAT-SYDN distance %v km", d)
	}
	if haversineKm(rs[SEAT], rs[SEAT]) != 0 {
		t.Fatal("self distance nonzero")
	}
}

func TestBaseRTTSymmetricAndMonotone(t *testing.T) {
	w := testWorld()
	for a := 0; a < w.NumRegions(); a++ {
		for b := 0; b < w.NumRegions(); b++ {
			if w.BaseRTT(a, b) != w.BaseRTT(b, a) {
				t.Fatalf("asymmetric RTT %d-%d", a, b)
			}
		}
	}
	// Nearby pair is faster than antipodal pair.
	if w.BaseRTT(GRAV, AMST) >= w.BaseRTT(SEAT, SYDN) {
		t.Fatal("distance should order base RTTs")
	}
	if w.BaseRTT(SEAT, SEAT) >= w.BaseRTT(SEAT, EAST) {
		t.Fatal("intra-region RTT must be lowest")
	}
}

func TestServiceDelayFaultOnlyAffectsItsRegion(t *testing.T) {
	w := testWorld()
	clean := Env{Tick: 10}
	faulty := Env{Tick: 10, Faults: []Fault{NewFault(FaultServiceDelay, GRAV)}}

	pGRAV0 := w.PathConditions(SEAT, GRAV, clean, nil)
	pGRAV1 := w.PathConditions(SEAT, GRAV, faulty, nil)
	if diff := pGRAV1.RTTMs - pGRAV0.RTTMs; math.Abs(diff-serviceDelayMs) > 1 {
		t.Fatalf("delay fault added %v ms, want ~%v", diff, serviceDelayMs)
	}
	pAMST0 := w.PathConditions(SEAT, AMST, clean, nil)
	pAMST1 := w.PathConditions(SEAT, AMST, faulty, nil)
	if pAMST0 != pAMST1 {
		t.Fatal("fault leaked to an unrelated host region")
	}
}

func TestGatewayDelayAffectsAllPathsOfClient(t *testing.T) {
	w := testWorld()
	clean := Env{Tick: 3}
	faulty := Env{Tick: 3, Faults: []Fault{NewFault(FaultGatewayDelay, SING)}}
	for host := 0; host < w.NumRegions(); host++ {
		d := w.PathConditions(SING, host, faulty, nil).RTTMs - w.PathConditions(SING, host, clean, nil).RTTMs
		if math.Abs(d-gatewayDelayMs) > 1 {
			t.Fatalf("host %d: gateway delay added %v", host, d)
		}
	}
	// Other clients unaffected.
	if w.PathConditions(SEAT, AMST, faulty, nil) != w.PathConditions(SEAT, AMST, clean, nil) {
		t.Fatal("gateway fault leaked to other clients")
	}
	// And the local gateway metric reflects it.
	l := w.ClientConditions(SING, faulty, nil)
	if l.GatewayRTTMs < gatewayDelayMs {
		t.Fatalf("gateway RTT %v under gateway fault", l.GatewayRTTMs)
	}
}

func TestLossFaultThrottlesThroughput(t *testing.T) {
	w := testWorld()
	clean := w.PathConditions(SEAT, SING, Env{}, nil)
	lossy := w.PathConditions(SEAT, SING, Env{Faults: []Fault{NewFault(FaultLoss, SING)}}, nil)
	if lossy.Loss < 0.07 {
		t.Fatalf("loss = %v under loss fault", lossy.Loss)
	}
	if lossy.DownMbps >= clean.DownMbps/2 {
		t.Fatalf("loss should throttle throughput: %v vs clean %v", lossy.DownMbps, clean.DownMbps)
	}
}

func TestRateFaultCapsBandwidth(t *testing.T) {
	w := testWorld()
	shaped := w.PathConditions(AMST, GRAV, Env{Faults: []Fault{NewFault(FaultRate, GRAV)}}, nil)
	if shaped.DownMbps > rateCapMbps+0.01 {
		t.Fatalf("down %v Mbps exceeds cap", shaped.DownMbps)
	}
	clean := w.PathConditions(AMST, GRAV, Env{}, nil)
	if clean.DownMbps <= rateCapMbps {
		t.Fatal("test premise broken: clean bandwidth should exceed the cap")
	}
}

func TestJitterFaultRaisesJitter(t *testing.T) {
	w := testWorld()
	clean := w.PathConditions(EAST, BEAU, Env{}, nil)
	jit := w.PathConditions(EAST, BEAU, Env{Faults: []Fault{NewFault(FaultJitter, BEAU)}}, nil)
	if jit.JitterMs < clean.JitterMs+jitterMaxMs/2-1 {
		t.Fatalf("jitter %v under jitter fault (clean %v)", jit.JitterMs, clean.JitterMs)
	}
}

func TestCPUStressOnlyLocal(t *testing.T) {
	w := testWorld()
	env := Env{Faults: []Fault{NewFault(FaultCPUStress, TOKY)}}
	if w.PathConditions(TOKY, AMST, env, nil) != w.PathConditions(TOKY, AMST, Env{}, nil) {
		t.Fatal("CPU stress should not change path conditions")
	}
	l := w.ClientConditions(TOKY, env, nil)
	if l.CPULoad < 0.9 {
		t.Fatalf("CPU load %v under stress", l.CPULoad)
	}
	if w.ClientConditions(SEAT, env, nil).CPULoad >= 0.9 {
		t.Fatal("CPU stress leaked to another region")
	}
	if w.CPULoadAt(TOKY, env) < 0.9 {
		t.Fatal("CPULoadAt disagrees")
	}
}

func TestCongestionVariesWithTick(t *testing.T) {
	w := testWorld()
	r0 := w.PathConditions(SEAT, SING, Env{Tick: 0}, nil).RTTMs
	different := false
	for tick := int64(1); tick < 96; tick++ {
		if math.Abs(w.PathConditions(SEAT, SING, Env{Tick: tick}, nil).RTTMs-r0) > 0.5 {
			different = true
			break
		}
	}
	if !different {
		t.Fatal("congestion has no diurnal effect")
	}
}

func TestNoiseIsDeterministicPerSeed(t *testing.T) {
	w := testWorld()
	env := Env{Tick: 5}
	a := w.PathConditions(SEAT, SING, env, stats.NewRand(9, 0))
	b := w.PathConditions(SEAT, SING, env, stats.NewRand(9, 0))
	if a != b {
		t.Fatal("same seed must give identical measurements")
	}
	c := w.PathConditions(SEAT, SING, env, stats.NewRand(10, 0))
	if a == c {
		t.Fatal("different seeds should differ")
	}
}

func TestEnvFaultSubsetting(t *testing.T) {
	env := Env{Tick: 7, Faults: []Fault{NewFault(FaultLoss, GRAV), NewFault(FaultRate, SING)}}
	only := env.OnlyFault(1)
	if len(only.Faults) != 1 || only.Faults[0].Kind != FaultRate || only.Tick != 7 {
		t.Fatalf("OnlyFault = %+v", only)
	}
	without := env.WithoutFault(0)
	if len(without.Faults) != 1 || without.Faults[0].Kind != FaultRate {
		t.Fatalf("WithoutFault = %+v", without)
	}
	// Originals untouched.
	if len(env.Faults) != 2 {
		t.Fatal("env mutated")
	}
}

func TestFaultKindStringAndSides(t *testing.T) {
	if FaultRate.String() != "rate" || FaultCPUStress.String() != "cpu-stress" {
		t.Fatal("fault names wrong")
	}
	if !FaultGatewayDelay.ClientSide() || !FaultCPUStress.ClientSide() {
		t.Fatal("client-side faults misclassified")
	}
	if FaultLoss.ClientSide() || FaultServiceDelay.ClientSide() {
		t.Fatal("server-side faults misclassified")
	}
	if len(AllFaultKinds()) != int(NumFaultKinds) {
		t.Fatal("AllFaultKinds incomplete")
	}
	if FaultKind(99).String() == "" {
		t.Fatal("out-of-range String should not be empty")
	}
}

// Property: all path conditions stay physically plausible under any fault
// combination, with and without noise.
func TestPathConditionsPlausibleProperty(t *testing.T) {
	w := testWorld()
	f := func(seed int64) bool {
		rng := stats.NewRand(seed, 0)
		env := Env{Tick: rng.Int63n(1000)}
		for i := 0; i < rng.Intn(3); i++ {
			env.Faults = append(env.Faults, Fault{
				Kind:      FaultKind(rng.Intn(int(NumFaultKinds))),
				Region:    rng.Intn(NumRegions),
				Magnitude: 1,
			})
		}
		client, host := rng.Intn(NumRegions), rng.Intn(NumRegions)
		for _, noisy := range []bool{false, true} {
			var r = rng
			if !noisy {
				r = nil
			}
			p := w.PathConditions(client, host, env, r)
			if p.RTTMs <= 0 || p.JitterMs <= 0 || p.Loss < 0 || p.Loss > 1 || p.DownMbps <= 0 || p.UpMbps <= 0 {
				return false
			}
			l := w.ClientConditions(client, env, r)
			if l.GatewayRTTMs <= 0 || l.CPULoad < 0 || l.CPULoad > 1 || l.MemLoad < 0 || l.MemLoad > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

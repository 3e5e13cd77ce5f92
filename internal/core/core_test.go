package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"diagnet/internal/dataset"
	"diagnet/internal/eval"
	"diagnet/internal/forest"
	"diagnet/internal/netsim"
	"diagnet/internal/probe"
)

// testConfig shrinks the network for fast tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Filters = 8
	cfg.Hidden = []int{48, 24}
	cfg.Epochs = 10
	cfg.Patience = 3
	cfg.SpecializeEpochs = 5
	cfg.Forest = forest.Config{Trees: 15, Tree: forest.TreeConfig{MaxDepth: 8}}
	return cfg
}

// knownRegions returns the 7 regions whose landmarks are visible during
// training.
func knownRegions() []int {
	hidden := map[int]bool{}
	for _, h := range netsim.HiddenLandmarks() {
		hidden[h] = true
	}
	var known []int
	for r := 0; r < netsim.NumRegions; r++ {
		if !hidden[r] {
			known = append(known, r)
		}
	}
	return known
}

var cachedSplit struct {
	train, test *dataset.Dataset
}

func trainTestData(t *testing.T) (*dataset.Dataset, *dataset.Dataset) {
	t.Helper()
	if cachedSplit.train == nil {
		w := netsim.NewWorld(netsim.Config{Seed: 1})
		d := dataset.Generate(dataset.GenConfig{
			World:          w,
			NominalSamples: 900,
			FaultSamples:   2400,
			Seed:           11,
		})
		cachedSplit.train, cachedSplit.test = d.Split(0.8, netsim.HiddenLandmarks(), 13)
	}
	return cachedSplit.train, cachedSplit.test
}

var cachedModel *Model

func trainedModel(t *testing.T) *Model {
	t.Helper()
	if cachedModel == nil {
		train, _ := trainTestData(t)
		cachedModel = TrainGeneral(train, knownRegions(), testConfig()).Model
	}
	return cachedModel
}

func TestDefaultConfigMatchesTableI(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Filters != 24 {
		t.Fatalf("f = %d, want 24", cfg.Filters)
	}
	if len(cfg.Hidden) != 2 || cfg.Hidden[0] != 512 || cfg.Hidden[1] != 128 {
		t.Fatalf("hidden = %v, want [512 128]", cfg.Hidden)
	}
	if len(cfg.PoolOpNames) != 13 {
		t.Fatalf("|Ω| = %d, want 13 (min,max,avg,var,p10..p90)", len(cfg.PoolOpNames))
	}
	if cfg.LearningRate != 0.05 || cfg.Decay != 0.001 {
		t.Fatalf("optimizer %v/%v, want 0.05/0.001", cfg.LearningRate, cfg.Decay)
	}
	if cfg.Forest.Trees != 50 || cfg.Forest.Tree.MaxDepth != 10 {
		t.Fatal("auxiliary forest config differs from Table I")
	}
}

func TestParamCountTableIArchitecture(t *testing.T) {
	cfg := DefaultConfig()
	// Build the net directly (no training needed) to count parameters.
	net := buildNet(cfg, rand.New(rand.NewSource(1)))
	total, trainable := net.ParamCount()
	// LandPool: 24·5+24; FC1: (13·24+5)·512+512; FC2: 512·128+128;
	// out: 128·7+7.
	want := 24*5 + 24 + (13*24+5)*512 + 512 + 512*128 + 128 + 128*7 + 7
	if total != want || trainable != want {
		t.Fatalf("ParamCount = %d/%d, want %d", total, trainable, want)
	}
}

func TestGeneralModelLearnsCoarseFamilies(t *testing.T) {
	m := trainedModel(t)
	_, test := trainTestData(t)
	conf := eval.NewConfusion(int(probe.NumFamilies))
	full := test.Layout
	for i := range test.Samples {
		s := &test.Samples[i]
		probs := m.CoarsePredict(full.Project(s.Features, m.TrainLayout), m.TrainLayout)
		pred := 0
		for k, p := range probs {
			if p > probs[pred] {
				pred = k
			}
		}
		conf.Add(int(s.Family), pred)
	}
	if acc := conf.Accuracy(); acc < 0.55 {
		t.Fatalf("coarse accuracy %.3f too low to be a trained model", acc)
	}
}

func TestDiagnoseRanksTrueCauses(t *testing.T) {
	m := trainedModel(t)
	_, test := trainTestData(t)
	full := test.Layout
	var ranks []int
	for i := range test.Samples {
		s := &test.Samples[i]
		if !s.Degraded {
			continue
		}
		diag := m.Diagnose(s.Features, full)
		ranks = append(ranks, eval.RankOf(diag.Final, s.Cause))
	}
	if len(ranks) == 0 {
		t.Fatal("no degraded test samples")
	}
	r5 := eval.RecallAtK(ranks, 5)
	if r5 < 0.4 {
		t.Fatalf("Recall@5 = %.3f — model failed to localize causes", r5)
	}
	// Must beat random ranking (5/55 ≈ 0.09) by a wide margin.
	if r5 < 3*5.0/55 {
		t.Fatalf("Recall@5 = %.3f barely above random", r5)
	}
}

func TestDiagnosisInvariants(t *testing.T) {
	m := trainedModel(t)
	_, test := trainTestData(t)
	full := test.Layout
	n := len(test.Samples)
	if n > 50 {
		n = 50
	}
	for i := 0; i < n; i++ {
		s := &test.Samples[i]
		diag := m.Diagnose(s.Features, full)
		var att, tuned float64
		for j := range diag.Attention {
			if diag.Attention[j] < 0 || diag.Tuned[j] < 0 || diag.Final[j] < 0 {
				t.Fatal("negative score")
			}
			att += diag.Attention[j]
			tuned += diag.Tuned[j]
		}
		if math.Abs(att-1) > 1e-9 {
			t.Fatalf("attention sums to %v", att)
		}
		// Algorithm 1 preserves normalization by construction.
		if math.Abs(tuned-1) > 1e-9 {
			t.Fatalf("tuned scores sum to %v", tuned)
		}
		if diag.UnknownWeight < 0 || diag.UnknownWeight > 1+1e-9 {
			t.Fatalf("w_U = %v", diag.UnknownWeight)
		}
		if len(diag.Ranked()) != full.NumFeatures() {
			t.Fatal("Ranked length")
		}
	}
}

func TestDiagnoseWorksWithFewerLandmarks(t *testing.T) {
	// Root-cause extensibility also means *fewer* landmarks at inference.
	m := trainedModel(t)
	_, test := trainTestData(t)
	sub := probe.NewLayout([]int{netsim.BEAU, netsim.AMST, netsim.SING})
	s := &test.Samples[0]
	features := test.Layout.Project(s.Features, sub)
	diag := m.Diagnose(features, sub)
	if len(diag.Final) != sub.NumFeatures() {
		t.Fatalf("diagnosis over %d features, want %d", len(diag.Final), sub.NumFeatures())
	}
}

func TestSpecializeFreezesConvolution(t *testing.T) {
	m := trainedModel(t)
	train, _ := trainTestData(t)
	svcID := train.Samples[0].Service
	res := m.Specialize(train, svcID)
	spec := res.Model
	if spec.ServiceID != svcID {
		t.Fatal("ServiceID not set")
	}
	// The LandPool kernel must be identical to the general model's.
	gLP := m.Net.Layers[0].Params()
	sLP := spec.Net.Layers[0].Params()
	for i := range gLP {
		for j, v := range gLP[i].Value.Data {
			if sLP[i].Value.Data[j] != v {
				t.Fatal("convolution weights moved during specialization")
			}
		}
		if !sLP[i].Frozen {
			t.Fatal("convolution not frozen")
		}
	}
	// Trainable parameter count shrinks to the final layers.
	total, trainable := spec.ParamCount()
	if trainable >= total {
		t.Fatal("nothing frozen")
	}
	gTotal, _ := m.ParamCount()
	if total != gTotal {
		t.Fatal("architecture changed")
	}
	// The general model itself must be untouched.
	if _, gTrainable := m.ParamCount(); gTrainable != gTotal {
		t.Fatal("Specialize froze the general model's params")
	}
}

func TestSpecializeConvergesFasterThanGeneral(t *testing.T) {
	train, _ := trainTestData(t)
	cfg := testConfig()
	general := TrainGeneral(train, knownRegions(), cfg)
	spec := general.Model.Specialize(train, train.Samples[0].Service)
	if spec.History.Epochs() > general.History.Epochs() {
		t.Fatalf("specialized model took %d epochs vs %d for general (paper: <5 vs ~20)",
			spec.History.Epochs(), general.History.Epochs())
	}
}

func TestSpecializeFromSpecializedPanics(t *testing.T) {
	m := trainedModel(t)
	train, _ := trainTestData(t)
	spec := m.Specialize(train, train.Samples[0].Service).Model
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	spec.Specialize(train, train.Samples[0].Service)
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m := trainedModel(t)
	_, test := trainTestData(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	s := &test.Samples[0]
	a := m.Diagnose(s.Features, test.Layout)
	b := loaded.Diagnose(s.Features, test.Layout)
	for j := range a.Final {
		if math.Abs(a.Final[j]-b.Final[j]) > 1e-12 {
			t.Fatal("loaded model diagnoses differently")
		}
	}
	if loaded.ServiceID != m.ServiceID {
		t.Fatal("metadata lost")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(bytes.NewBufferString("xx")); err == nil {
		t.Fatal("want error")
	}
}

func TestScoreWeightingAlgorithm1(t *testing.T) {
	layout := probe.NewLayout([]int{netsim.AMST})
	// features: rtt, jitter, loss, down, up, gw-rtt, gw-jit, cpu, mem, io
	gamma := []float64{0.4, 0.1, 0.1, 0.1, 0.1, 0.05, 0.05, 0.04, 0.03, 0.03}
	coarse := make([]float64, probe.NumFamilies)
	coarse[probe.FamLatency] = 0.7
	coarse[probe.FamNominal] = 0.3
	tuned := scoreWeighting(make([]float64, len(gamma)), gamma, coarse, layout, probe.FamLatency)
	// p = {0} (only the RTT feature is latency family); s = 0.4, w = 0.7.
	if math.Abs(tuned[0]-0.4*0.7/0.4) > 1e-12 {
		t.Fatalf("bonus wrong: %v", tuned[0])
	}
	// Penalty features scale by (1-w)/(1-s) = 0.3/0.6 = 0.5.
	if math.Abs(tuned[1]-0.05) > 1e-12 {
		t.Fatalf("penalty wrong: %v", tuned[1])
	}
	// Normalization preserved.
	var sum float64
	for _, v := range tuned {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("tuned sums to %v", sum)
	}
}

func TestScoreWeightingExtremeCases(t *testing.T) {
	layout := probe.NewLayout([]int{netsim.AMST})
	coarse := make([]float64, probe.NumFamilies)
	coarse[probe.FamLatency] = 1
	// s == 0: all gamma mass outside the family.
	gamma := []float64{0, 0.5, 0.5, 0, 0, 0, 0, 0, 0, 0}
	tuned := scoreWeighting(make([]float64, len(gamma)), gamma, coarse, layout, probe.FamLatency)
	for j := range gamma {
		if tuned[j] != gamma[j] {
			t.Fatal("s=0 must leave scores unchanged")
		}
	}
	// Nominal family: no features belong to it.
	tuned = scoreWeighting(make([]float64, len(gamma)), gamma, coarse, layout, probe.FamNominal)
	for j := range gamma {
		if tuned[j] != gamma[j] {
			t.Fatal("nominal family must leave scores unchanged")
		}
	}
}

// randomLayout draws 1..NumRegions distinct regions in random order.
func randomLayout(rng *rand.Rand) probe.Layout {
	regions := rng.Perm(netsim.NumRegions)
	return probe.NewLayout(regions[:1+rng.Intn(netsim.NumRegions)])
}

// dyadicMass spreads exactly one unit of mass over the features selected by
// keep, in multiples of 1/1024: every partial sum is exact in float64, so a
// family share of 0 or 1 is the float 0 or 1 and not a neighbour of it.
func dyadicMass(rng *rand.Rand, n int, keep func(j int) bool) []float64 {
	var idx []int
	for j := 0; j < n; j++ {
		if keep(j) {
			idx = append(idx, j)
		}
	}
	gamma := make([]float64, n)
	for unit := 0; unit < 1024; unit++ {
		gamma[idx[rng.Intn(len(idx))]] += 1.0 / 1024
	}
	return gamma
}

// TestScoreWeightingConservesMass is the metamorphic statement of
// Algorithm 1 over seeded random γ̂, coarse vectors and layouts: whenever
// the predicted family holds a share 0 < s < 1 of the attention, the tuned
// vector is still a distribution, the family holds exactly the coarse
// confidence w, the rest 1 − w, and inside each of the two groups every
// feature was scaled by one factor (so their order is untouched); at
// s ∈ {0, 1} and for the nominal family γ̂ comes back unchanged.
func TestScoreWeightingConservesMass(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	const tol = 1e-12
	for trial := 0; trial < 500; trial++ {
		layout := randomLayout(rng)
		n := layout.NumFeatures()
		gamma := make([]float64, n)
		var total float64
		for j := range gamma {
			gamma[j] = rng.ExpFloat64()
			total += gamma[j]
		}
		for j := range gamma {
			gamma[j] /= total
		}
		coarse := make([]float64, probe.NumFamilies)
		for k := range coarse {
			coarse[k] = rng.Float64() * 3 // Algorithm 1 normalizes: w = y_φ / Σy
		}
		fam := probe.Family(1 + rng.Intn(int(probe.NumFamilies)-1))
		inFam := func(j int) bool { return layout.FamilyOf(j) == fam }

		var ysum float64
		for _, y := range coarse {
			ysum += y
		}
		w := coarse[fam] / ysum
		tuned := scoreWeighting(make([]float64, len(gamma)), gamma, coarse, layout, fam)
		var sum, famMass float64
		for j, v := range tuned {
			sum += v
			if inFam(j) {
				famMass += v
			}
		}
		if math.Abs(sum-1) > tol || math.Abs(famMass-w) > tol || math.Abs(sum-famMass-(1-w)) > tol {
			t.Fatalf("trial %d (%v, family %v): Σtuned = %v, family mass %v, want 1 and w = %v", trial, layout.Landmarks, fam, sum, famMass, w)
		}
		for i := range tuned {
			for j := range tuned {
				if inFam(i) == inFam(j) && gamma[i] < gamma[j] && tuned[i] > tuned[j] {
					t.Fatalf("trial %d: features %d and %d of one group swapped order (γ̂ %v < %v, tuned %v > %v)",
						trial, i, j, gamma[i], gamma[j], tuned[i], tuned[j])
				}
			}
		}

		// Extreme shares and the nominal family: γ̂ unchanged, bit for bit.
		for name, g := range map[string][]float64{
			"s=0": dyadicMass(rng, n, func(j int) bool { return !inFam(j) }),
			"s=1": dyadicMass(rng, n, inFam),
		} {
			for j, v := range scoreWeighting(make([]float64, len(g)), g, coarse, layout, fam) {
				if v != g[j] {
					t.Fatalf("trial %d: %s changed feature %d from %v to %v", trial, name, j, g[j], v)
				}
			}
		}
		for j, v := range scoreWeighting(make([]float64, len(gamma)), gamma, coarse, layout, probe.FamNominal) {
			if v != gamma[j] {
				t.Fatalf("trial %d: nominal family changed feature %d from %v to %v", trial, j, gamma[j], v)
			}
		}
	}
}

// TestUnknownWeightAndEnsembleEndpoints pins the §III-F ensemble at its two
// ends on a trained model. w_U is a share of the tuned attention, so it
// lies in [0, 1] under any layout, and it is exactly 0 when every probed
// landmark was seen in training — then Final is the forest's score vector
// and ranks as the forest does. When all the attention sits on landmarks
// the model never saw, w_U is 1 and Final ranks as the weighted attention
// does.
func TestUnknownWeightAndEnsembleEndpoints(t *testing.T) {
	m := trainedModel(t)
	_, test := trainTestData(t)
	deg := test.Degraded()
	rng := rand.New(rand.NewSource(43))
	known := knownRegions()
	var sc scratch
	for trial := 0; trial < 40; trial++ {
		smp := &deg.Samples[rng.Intn(deg.Len())]

		layout := randomLayout(rng)
		d := m.Diagnose(test.Layout.Project(smp.Features, layout), layout)
		if d.UnknownWeight < 0 || d.UnknownWeight > 1+1e-12 {
			t.Fatalf("trial %d (%v): w_U = %v outside [0, 1]", trial, layout.Landmarks, d.UnknownWeight)
		}

		// Every landmark known: w_U = 0 and the forest alone decides.
		perm := rng.Perm(len(known))
		sub := make([]int, 1+rng.Intn(len(known)))
		for i := range sub {
			sub[i] = known[perm[i]]
		}
		layout = probe.NewLayout(sub)
		features := test.Layout.Project(smp.Features, layout)
		d = m.Diagnose(features, layout)
		if d.UnknownWeight != 0 {
			t.Fatalf("trial %d (%v): w_U = %v with every landmark known, want 0", trial, sub, d.UnknownWeight)
		}
		aux := m.auxScoresInto(features, layout, make([]float64, m.FullLayout.NumFeatures()),
			make([]float64, m.Aux.Causes()), make([]float64, layout.NumFeatures()))
		for j := range aux {
			if d.Final[j] != aux[j] {
				t.Fatalf("trial %d: w_U = 0 but Final[%d] = %v, forest says %v", trial, j, d.Final[j], aux[j])
			}
		}

		// All attention on unseen landmarks: hand postprocess a gradient
		// that is zero everywhere else. Its mass is dyadic so that Eq. 1
		// reproduces it exactly; with a nominal prediction Algorithm 1
		// leaves it alone and w_U is the float 1, with a fault family it
		// rescales and w_U is 1 up to rounding.
		layout = probe.NewLayout(append(append([]int(nil), netsim.HiddenLandmarks()...), sub...))
		features = test.Layout.Project(smp.Features, layout)
		unseen := func(j int) bool { return !layout.IsLocal(j) && !m.Known[layout.Landmarks[j/int(probe.NumMetrics)]] }
		for _, fam := range []probe.Family{probe.FamNominal, probe.FamLatency, probe.FamBandwidth} {
			coarse := make([]float64, probe.NumFamilies)
			for k := range coarse {
				coarse[k] = 0.05
			}
			coarse[fam] = 0.7
			grad := dyadicMass(rng, layout.NumFeatures(), unseen)
			d = m.newDiagnosis(coarse, features, layout, &sc)
			m.attend(d, grad)
			if fam == probe.FamNominal && d.UnknownWeight != 1 {
				t.Fatalf("trial %d: w_U = %v with all attention on unseen landmarks, want 1", trial, d.UnknownWeight)
			}
			if math.Abs(d.UnknownWeight-1) > 1e-12 {
				t.Fatalf("trial %d (%v): w_U = %v with all attention on unseen landmarks, want 1", trial, fam, d.UnknownWeight)
			}
			byTuned := (&Diagnosis{Final: d.Tuned}).Ranked()
			for r, j := range d.Ranked() {
				if d.Tuned[j] == 0 {
					break // below the attention's support only the forest's rounding-sized share is left
				}
				if j != byTuned[r] {
					t.Fatalf("trial %d (%v): w_U = 1 but rank %d is feature %d, the weighted attention says %d", trial, fam, r, j, byTuned[r])
				}
			}
		}
	}
}

// TestDiagnosisFollowsLandmarkPermutation: the order in which a client
// lists its landmarks carries no information, so permuting the landmarks
// of a request permutes Final (and Attention, Tuned) with it and leaves the
// coarse distribution and w_U alone. Not bit for bit — LandPooling's
// avg/var operators sum over landmarks in request order (a third of these
// trials differ, by at most 2.3e-16) — hence the 1e-12 tolerance on scores
// that sum to one.
func TestDiagnosisFollowsLandmarkPermutation(t *testing.T) {
	m := trainedModel(t)
	_, test := trainTestData(t)
	deg := test.Degraded()
	rng := rand.New(rand.NewSource(47))
	const tol = 1e-12
	near := func(a, b float64) bool { return math.Abs(a-b) <= tol }
	for trial := 0; trial < 40; trial++ {
		smp := &deg.Samples[rng.Intn(deg.Len())]
		layout := randomLayout(rng)
		perm := rng.Perm(layout.NumLandmarks())
		shuffled := make([]int, len(perm))
		for pos, from := range perm {
			shuffled[pos] = layout.Landmarks[from]
		}
		permuted := probe.NewLayout(shuffled)
		a := m.Diagnose(test.Layout.Project(smp.Features, layout), layout)
		b := m.Diagnose(test.Layout.Project(smp.Features, permuted), permuted)

		for k := range a.Coarse {
			if !near(a.Coarse[k], b.Coarse[k]) {
				t.Fatalf("trial %d: coarse[%d] moved %v -> %v under %v", trial, k, a.Coarse[k], b.Coarse[k], perm)
			}
		}
		if !near(a.UnknownWeight, b.UnknownWeight) {
			t.Fatalf("trial %d: w_U moved %v -> %v under %v", trial, a.UnknownWeight, b.UnknownWeight, perm)
		}
		for j := 0; j < permuted.NumFeatures(); j++ {
			from := j // local features keep their place
			if !permuted.IsLocal(j) {
				from = perm[j/int(probe.NumMetrics)]*int(probe.NumMetrics) + j%int(probe.NumMetrics)
			}
			if !near(a.Attention[from], b.Attention[j]) || !near(a.Tuned[from], b.Tuned[j]) || !near(a.Final[from], b.Final[j]) {
				t.Fatalf("trial %d: %s scored %v/%v/%v, %v/%v/%v after permuting landmarks by %v (attention/tuned/final)", trial,
					permuted.FeatureName(j), a.Attention[from], a.Tuned[from], a.Final[from], b.Attention[j], b.Tuned[j], b.Final[j], perm)
			}
		}
	}
}

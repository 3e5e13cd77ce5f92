package core

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"

	"diagnet/internal/dataset"
	"diagnet/internal/netsim"
	"diagnet/internal/nn"
	"diagnet/internal/probe"
)

func TestBalancedWeights(t *testing.T) {
	// 8 of class 0, 2 of class 1, none of class 2.
	labels := []int{0, 0, 0, 0, 0, 0, 0, 0, 1, 1}
	w := balancedWeights(labels, 3)
	// n=10, present=2 → w0 = 10/(2·8) = 0.625, w1 = 10/(2·2) = 2.5.
	if math.Abs(w[0]-0.625) > 1e-12 || math.Abs(w[1]-2.5) > 1e-12 {
		t.Fatalf("weights %v", w)
	}
	if w[2] != 0 {
		t.Fatal("absent class must get weight 0")
	}
	// Expected value over the distribution is 1.
	mean := (8*w[0] + 2*w[1]) / 10
	if math.Abs(mean-1) > 1e-12 {
		t.Fatalf("weighted mean %v", mean)
	}
}

func TestAuxScoresMappingOnSubLayout(t *testing.T) {
	m := trainedModel(t)
	_, test := trainTestData(t)
	s := &test.Samples[0]
	full := test.Layout

	// Full-layout aux scores must be exactly the forest's scores.
	direct := m.Aux.Scores(s.Features)
	auxScores := func(features []float64, layout probe.Layout) []float64 {
		return m.auxScoresInto(features, layout, make([]float64, full.NumFeatures()),
			make([]float64, m.Aux.Causes()), make([]float64, layout.NumFeatures()))
	}
	mapped := auxScores(s.Features, full)
	for j := range direct {
		if direct[j] != mapped[j] {
			t.Fatal("full-layout aux mapping must be the identity")
		}
	}

	// Sub-layout mapping: each feature's score equals the corresponding
	// full-layout feature's score from a zero-filled vector.
	sub := probe.NewLayout([]int{netsim.SING, netsim.BEAU})
	subFeat := full.Project(s.Features, sub)
	subScores := auxScores(subFeat, sub)
	if len(subScores) != sub.NumFeatures() {
		t.Fatalf("sub scores len %d", len(subScores))
	}
	// Build the zero-filled full vector the mapping should have used.
	zeroed := make([]float64, full.NumFeatures())
	for pos, region := range full.Landmarks {
		if lp := sub.LandmarkPos(region); lp >= 0 {
			for mt := 0; mt < int(probe.NumMetrics); mt++ {
				zeroed[full.FeatureIndex(pos, probe.Metric(mt))] = subFeat[sub.FeatureIndex(lp, probe.Metric(mt))]
			}
		}
	}
	for li := 0; li < probe.NumLocal; li++ {
		zeroed[full.LocalIndex(li)] = subFeat[sub.LocalIndex(li)]
	}
	want := m.Aux.Scores(zeroed)
	if subScores[sub.FeatureIndex(0, probe.MetricRTT)] != want[full.FeatureIndex(netsim.SING, probe.MetricRTT)] {
		t.Fatal("sub-layout landmark score misaligned")
	}
	if subScores[sub.LocalIndex(probe.LocalCPU)] != want[full.LocalIndex(probe.LocalCPU)] {
		t.Fatal("sub-layout local score misaligned")
	}
}

func TestDiagnoseRejectsWrongWidth(t *testing.T) {
	m := trainedModel(t)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	m.Diagnose(make([]float64, 7), probe.FullLayout())
}

func TestTrainGeneralEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	TrainGeneral(&dataset.Dataset{Layout: probe.FullLayout()}, knownRegions(), testConfig())
}

func TestSpecializeUnknownServicePanics(t *testing.T) {
	m := trainedModel(t)
	train, _ := trainTestData(t)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	m.Specialize(train, 9999)
}

func TestConfigWithDefaultsFillsZeroValues(t *testing.T) {
	var cfg Config
	got := cfg.withDefaults()
	want := DefaultConfig()
	if got.Filters != want.Filters || got.LearningRate != want.LearningRate ||
		len(got.Hidden) != len(want.Hidden) || got.Forest.Trees != want.Forest.Trees {
		t.Fatalf("withDefaults = %+v", got)
	}
	// Partial override survives.
	cfg.Filters = 99
	if cfg.withDefaults().Filters != 99 {
		t.Fatal("override lost")
	}
}

func TestDiagnoseDeterministic(t *testing.T) {
	m := trainedModel(t)
	_, test := trainTestData(t)
	s := &test.Samples[0]
	a := m.Diagnose(s.Features, test.Layout)
	b := m.Diagnose(s.Features, test.Layout)
	for j := range a.Final {
		if a.Final[j] != b.Final[j] {
			t.Fatal("Diagnose not deterministic")
		}
	}
}

func TestRankedIsPermutation(t *testing.T) {
	m := trainedModel(t)
	_, test := trainTestData(t)
	diag := m.Diagnose(test.Samples[0].Features, test.Layout)
	ranked := diag.Ranked()
	seen := make([]bool, len(ranked))
	for _, j := range ranked {
		if j < 0 || j >= len(seen) || seen[j] {
			t.Fatalf("Ranked is not a permutation: %v", ranked)
		}
		seen[j] = true
	}
	// Scores are non-increasing along the ranking.
	for i := 1; i < len(ranked); i++ {
		if diag.Final[ranked[i]] > diag.Final[ranked[i-1]] {
			t.Fatal("Ranked not sorted by score")
		}
	}
}

func TestBuildOptimizerKinds(t *testing.T) {
	cfg := DefaultConfig()
	if _, ok := buildOptimizer(cfg).(*nn.SGD); !ok {
		t.Fatal("default optimizer should be SGD")
	}
	cfg.Optimizer = "adam"
	if _, ok := buildOptimizer(cfg).(*nn.Adam); !ok {
		t.Fatal("adam not selected")
	}
	cfg.Optimizer = "lbfgs"
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for unknown optimizer")
		}
	}()
	buildOptimizer(cfg)
}

func TestUnknownWeightZeroWhenAllLandmarksKnown(t *testing.T) {
	m := trainedModel(t)
	_, test := trainTestData(t)
	s := &test.Samples[0]
	// Diagnose on the training layout: every landmark is known, so the
	// ensemble must fall back entirely onto the auxiliary forest.
	feat := test.Layout.Project(s.Features, m.TrainLayout)
	diag := m.Diagnose(feat, m.TrainLayout)
	if diag.UnknownWeight != 0 {
		t.Fatalf("w_U = %v with no unknown landmarks", diag.UnknownWeight)
	}
}

// TrainGeneral fits the forest beside the network, and forest fitting and
// the matrix products both shard over GOMAXPROCS; the model they give must
// not depend on it.
func TestTrainGeneralIndependentOfParallelism(t *testing.T) {
	train, _ := trainTestData(t)
	cfg := testConfig()
	cfg.Epochs = 2
	saved := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		var buf bytes.Buffer
		if err := NewBundle(TrainGeneral(train, knownRegions(), cfg).Model).Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if one, two := saved(1), saved(2); !bytes.Equal(one, two) {
		t.Fatalf("the bundle trained at GOMAXPROCS 1 (%d B) differs from the one at 2 (%d B)", len(one), len(two))
	}
}

// The forest refuses a non-finite feature on the goroutine it is fitted
// on; TrainGeneral raises that panic to its caller.
func TestTrainGeneralRaisesTheForestsPanic(t *testing.T) {
	train, _ := trainTestData(t)
	small := &dataset.Dataset{Layout: train.Layout, Samples: append([]dataset.Sample(nil), train.Samples[:80]...)}
	s := &small.Samples[5]
	s.Features = append([]float64(nil), s.Features...)
	s.Features[len(s.Features)-1] = math.Inf(1)
	cfg := testConfig()
	cfg.Epochs = 1
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, "non-finite feature +Inf at row 5") {
			t.Fatalf("panic %q, want the forest's refusal of row 5", msg)
		}
	}()
	TrainGeneral(small, knownRegions(), cfg)
}

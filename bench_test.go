package diagnet

import (
	"context"
	"net/http/httptest"
	"sync"
	"testing"

	"diagnet/internal/dataset"
	"diagnet/internal/landmark"
	"diagnet/internal/netsim"
	"diagnet/internal/probe"
)

// The benchmark suite regenerates every evaluation artifact of the paper
// (one benchmark per table/figure, DESIGN.md §5) on the quick profile,
// plus micro-benchmarks for the pipeline's hot paths. Expensive fixtures
// (trained lab, dataset) are built once and shared.

var (
	labOnce  sync.Once
	benchLab *Lab
)

func sharedLab() *Lab {
	labOnce.Do(func() {
		benchLab = NewLab(QuickProfile(), nil)
	})
	return benchLab
}

var (
	dataOnce  sync.Once
	benchData *dataset.Dataset
)

func sharedData() *dataset.Dataset {
	dataOnce.Do(func() {
		world := NewWorld(WorldConfig{Seed: 1})
		benchData = Generate(GenConfig{
			World:          world,
			NominalSamples: 600,
			FaultSamples:   1400,
			Seed:           11,
		})
	})
	return benchData
}

// BenchmarkTableI_TrainGeneral measures general-model training — the
// "32 s on a commodity laptop" cost of §IV-F (Table I architecture scaled
// to the quick profile).
func BenchmarkTableI_TrainGeneral(b *testing.B) {
	data := sharedData()
	train, _ := data.Split(0.8, HiddenLandmarks(), 13)
	cfg := QuickProfile().Config
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		TrainGeneral(train, KnownRegions(), cfg)
	}
}

// BenchmarkTableI_Specialize measures per-service fine-tuning — the "4 s
// per service model" cost of §IV-F.
func BenchmarkTableI_Specialize(b *testing.B) {
	l := sharedLab()
	train := l.Train
	svc := train.Samples[0].Service
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.General.Model.Specialize(train, svc)
	}
}

// BenchmarkInference_Diagnose measures one full diagnosis (coarse forward,
// attention backward, Algorithm 1, ensemble) — the paper reports 45 ms.
func BenchmarkInference_Diagnose(b *testing.B) {
	l := sharedLab()
	deg := l.Test.Degraded()
	s := &deg.Samples[0]
	m := l.ModelFor(s.Service)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Diagnose(s.Features, l.Full)
	}
}

// BenchmarkInference_Coarse measures step ④ alone.
func BenchmarkInference_Coarse(b *testing.B) {
	l := sharedLab()
	deg := l.Test.Degraded()
	s := &deg.Samples[0]
	m := l.ModelFor(s.Service)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.CoarsePredict(s.Features, l.Full)
	}
}

// BenchmarkBaseline_RandomForest measures the extensible forest's scoring.
func BenchmarkBaseline_RandomForest(b *testing.B) {
	l := sharedLab()
	deg := l.Test.Degraded()
	s := &deg.Samples[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.General.Model.Aux.Scores(s.Features)
	}
}

// BenchmarkBaseline_NaiveBayes measures the KDE Naive Bayes scoring.
func BenchmarkBaseline_NaiveBayes(b *testing.B) {
	l := sharedLab()
	deg := l.Test.Degraded()
	s := &deg.Samples[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.NB.Scores(s.Features)
	}
}

// BenchmarkDatasetGenerate measures the parallel scenario generator
// (§IV-A-e workload).
func BenchmarkDatasetGenerate(b *testing.B) {
	world := NewWorld(WorldConfig{Seed: 1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Generate(GenConfig{World: world, NominalSamples: 200, FaultSamples: 400, Seed: int64(i)})
	}
}

// BenchmarkFig5_RecallCurves regenerates Fig. 5 (Recall@k, three models,
// new vs known landmarks).
func BenchmarkFig5_RecallCurves(b *testing.B) {
	l := sharedLab()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Fig5()
	}
}

// BenchmarkFig6_PerFamilyAndRegion regenerates Fig. 6.
func BenchmarkFig6_PerFamilyAndRegion(b *testing.B) {
	l := sharedLab()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Fig6()
	}
}

// BenchmarkFig7_CoarseClassifier regenerates Fig. 7.
func BenchmarkFig7_CoarseClassifier(b *testing.B) {
	l := sharedLab()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Fig7()
	}
}

// BenchmarkFig8_ClientDiversity regenerates Fig. 8 (retrains a pipeline
// per diversity level — the heaviest experiment).
func BenchmarkFig8_ClientDiversity(b *testing.B) {
	l := sharedLab()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Fig8()
	}
}

// BenchmarkFig9_TrainingCost regenerates Fig. 9 / §IV-F cost analysis.
func BenchmarkFig9_TrainingCost(b *testing.B) {
	l := sharedLab()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Fig9()
	}
}

// BenchmarkFig10_SimultaneousFaults regenerates Fig. 10.
func BenchmarkFig10_SimultaneousFaults(b *testing.B) {
	l := sharedLab()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Fig10()
	}
}

// BenchmarkAblation quantifies each pipeline stage's contribution.
func BenchmarkAblation(b *testing.B) {
	l := sharedLab()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Ablation()
	}
}

// BenchmarkLandmarkProbe measures a full live probe (ping, download,
// upload, stats) against an in-process landmark over loopback.
func BenchmarkLandmarkProbe(b *testing.B) {
	var lm landmark.Server
	ts := httptest.NewServer(lm.Handler())
	defer ts.Close()
	p := landmark.NewProber(landmark.ProberConfig{Pings: 3, DownloadBytes: 64 << 10, UploadBytes: 64 << 10})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Probe(context.Background(), ts.URL); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorProbe measures one simulated full-layout probe (all
// ten landmarks plus local features).
func BenchmarkSimulatorProbe(b *testing.B) {
	l := sharedLab()
	prober := probe.Prober{W: l.World}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prober.Sample(netsim.AMST, l.Full, netsim.Env{Tick: int64(i)}, nil)
	}
}

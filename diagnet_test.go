package diagnet

import (
	"bytes"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	world := NewWorld(WorldConfig{Seed: 1})
	data := Generate(GenConfig{
		World:          world,
		NominalSamples: 300,
		FaultSamples:   700,
		Seed:           3,
	})
	train, test := data.Split(0.8, HiddenLandmarks(), 5)
	cfg := DefaultConfig()
	cfg.Filters = 6
	cfg.Hidden = []int{24, 12}
	cfg.Epochs = 6
	cfg.Forest.Trees = 10
	res := TrainGeneral(train, KnownRegions(), cfg)

	layout := FullLayout()
	deg := test.Degraded()
	if deg.Len() == 0 {
		t.Fatal("no degraded test samples")
	}
	diag := res.Model.Diagnose(deg.Samples[0].Features, layout)
	if len(diag.Final) != layout.NumFeatures() {
		t.Fatalf("diagnosis over %d features", len(diag.Final))
	}

	// Save/Load through the facade: a lone model is a bundle with no
	// services.
	var buf bytes.Buffer
	if err := NewBundle(res.Model).Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	diag2 := loaded.General.Diagnose(deg.Samples[0].Features, layout)
	if diag2.Ranked()[0] != diag.Ranked()[0] {
		t.Fatal("loaded model ranks differently")
	}
}

func TestFacadeConstantsAndCatalog(t *testing.T) {
	if len(DefaultRegions()) != 10 {
		t.Fatal("regions")
	}
	if len(HiddenLandmarks()) != 3 || len(KnownRegions()) != 7 {
		t.Fatal("hidden/known split")
	}
	if len(Catalog()) != 12 || len(TrainingServices()) != 8 {
		t.Fatal("catalog")
	}
	if FullLayout().NumFeatures() != 55 {
		t.Fatal("m != 55")
	}
	f := NewFault(FaultLoss, 3)
	if f.Magnitude != 1 {
		t.Fatal("fault magnitude")
	}
	if QuickProfile().Name != "quick" || DefaultProfile().Name != "default" || PaperProfile().Name != "paper" {
		t.Fatal("profiles")
	}
}

func TestFacadeAgentAndTrace(t *testing.T) {
	// Record a short simulated session through the facade, replay it into
	// an agent, and check the degradation surfaces.
	world := NewWorld(WorldConfig{Seed: 3})
	layout := FullLayout()
	svc := Catalog()[3] // image.local@GRAV
	src := NewSimSource(world, 4 /* AMST */, svc, layout, func(tick int64) []Fault {
		if tick >= 20 {
			return []Fault{NewFault(FaultLoss, 3 /* GRAV */)}
		}
		return nil
	}, 9)
	ticks := make([]int64, 40)
	for i := range ticks {
		ticks[i] = int64(i)
	}
	tr := RecordTrace(src, layout, ticks)
	var buf bytes.Buffer
	if err := tr.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	agent := NewAgent(loaded.Replay(), layout.NumFeatures(), AgentConfig{Warmup: 5})
	events := 0
	for _, tick := range ticks {
		if _, degraded := agent.Step(tick); degraded {
			events++
		}
	}
	if events == 0 {
		t.Fatal("no degradations through the facade pipeline")
	}
}

func TestFacadeBundle(t *testing.T) {
	world := NewWorld(WorldConfig{Seed: 1})
	data := Generate(GenConfig{World: world, NominalSamples: 200, FaultSamples: 500, Seed: 3})
	train, _ := data.Split(0.8, HiddenLandmarks(), 5)
	cfg := DefaultConfig()
	cfg.Filters = 6
	cfg.Hidden = []int{24, 12}
	cfg.Epochs = 4
	cfg.Forest.Trees = 5
	res := TrainGeneral(train, KnownRegions(), cfg)
	b := NewBundle(res.Model)
	b.SpecializeAll(train, []int{train.Samples[0].Service})
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadBundle(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeDatasetRoundTrip(t *testing.T) {
	world := NewWorld(WorldConfig{Seed: 2})
	data := Generate(GenConfig{World: world, NominalSamples: 50, FaultSamples: 100, Seed: 4})
	var buf bytes.Buffer
	if err := data.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadDataset(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != data.Len() {
		t.Fatal("round trip")
	}
}

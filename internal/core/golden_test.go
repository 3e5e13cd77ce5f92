package core

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"diagnet/internal/forest"
	"diagnet/internal/probe"
)

// update regenerates the committed golden fixtures:
//
//	go test ./internal/core -run Golden -update
var update = flag.Bool("update", false, "rewrite golden fixtures in testdata")

// syntheticModel builds a deterministic Model without training: the
// network keeps its seeded initialization, the auxiliary forest is fitted
// on a small synthetic dataset, and the normalizer on synthetic samples.
// Everything derives from fixed seeds, so two builds (or a build and a
// decoded fixture) are bit-identical.
func syntheticModel(filters int, hidden []int) *Model {
	cfg := DefaultConfig()
	cfg.Filters = filters
	cfg.Hidden = hidden
	cfg.Seed = 42
	cfg = cfg.withDefaults()

	full := probe.FullLayout()
	regions := knownRegions()
	known := make(map[int]bool, len(regions))
	for _, r := range regions {
		known[r] = true
	}
	trainLayout := probe.NewLayout(regions)

	rng := rand.New(rand.NewSource(cfg.Seed))
	net := buildNet(cfg, rng)

	causes := full.NumFeatures()
	frng := rand.New(rand.NewSource(7))
	xs := make([][]float64, 240)
	labels := make([]int, len(xs))
	for i := range xs {
		x := make([]float64, causes)
		for j := range x {
			x[j] = frng.Float64() * 10
		}
		xs[i] = x
		labels[i] = i % (causes + 1)
	}
	aux := forest.FitExtensible(xs, labels, causes, forest.Config{
		Trees: 8, Tree: forest.TreeConfig{MaxDepth: 5}, Seed: 3,
	})

	nrng := rand.New(rand.NewSource(9))
	raw := make([][]float64, 64)
	for i := range raw {
		x := make([]float64, trainLayout.NumFeatures())
		for j := range x {
			x[j] = nrng.Float64() * 100
		}
		raw[i] = x
	}
	norm := probe.FitNormalizer(raw, trainLayout)

	return &Model{
		Cfg:         cfg,
		TrainLayout: trainLayout,
		Known:       known,
		Norm:        norm,
		Net:         net,
		Aux:         aux,
		FullLayout:  full,
		ServiceID:   -1,
	}
}

// goldenInput is the fixed full-layout sample every golden check diagnoses.
func goldenInput() []float64 {
	full := probe.FullLayout()
	rng := rand.New(rand.NewSource(17))
	x := make([]float64, full.NumFeatures())
	for j := range x {
		x[j] = rng.Float64() * 50
	}
	return x
}

// goldenExpect is the committed behavioral contract of the fixture model.
type goldenExpect struct {
	Family      string    `json:"family"`
	Coarse      []float64 `json:"coarse"`
	Unknown     float64   `json:"unknown_weight"`
	Top5        []int     `json:"top5"`
	Top5Scores  []float64 `json:"top5_scores"`
	TotalParams int       `json:"total_params"`
}

func expectFrom(m *Model) goldenExpect {
	full := probe.FullLayout()
	d := m.Diagnose(goldenInput(), full)
	total, _ := m.ParamCount()
	e := goldenExpect{
		Family:      d.Family.String(),
		Coarse:      d.Coarse,
		Unknown:     d.UnknownWeight,
		TotalParams: total,
	}
	for _, j := range d.Ranked()[:5] {
		e.Top5 = append(e.Top5, j)
		e.Top5Scores = append(e.Top5Scores, d.Final[j])
	}
	return e
}

// TestGoldenModelFormat pins the model file: the committed bundle must
// decode into one whose general model's diagnosis of a fixed input matches
// the committed expectations. A format change that breaks files already
// written (renamed wire fields, reordered layouts, changed normalizer
// transform) fails here loudly instead of silently corrupting deployments
// that load them. The committed bytes are a version-3 bundle (each
// parameter one little-endian byte string); testdata/bundle.v2.gob keeps
// the same bundle as version 2 wrote it, which LoadBundle refuses.
// -update rewrites the version-3 file with today's Save.
func TestGoldenModelFormat(t *testing.T) {
	gobPath := filepath.Join("testdata", "bundle.golden.gob")
	jsonPath := filepath.Join("testdata", "model.golden.json")

	if *update {
		b := fixtureBundle()
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		f, err := os.Create(gobPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Save(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		js, err := json.MarshalIndent(expectFrom(b.General), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(jsonPath, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Log("golden fixtures updated")
	}

	m := goldenBundle(t).General
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var want goldenExpect
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	got := expectFrom(m)
	if got.Family != want.Family {
		t.Errorf("family %q, want %q", got.Family, want.Family)
	}
	if got.Unknown != want.Unknown {
		t.Errorf("unknown weight %v, want %v", got.Unknown, want.Unknown)
	}
	if got.TotalParams != want.TotalParams {
		t.Errorf("params %d, want %d", got.TotalParams, want.TotalParams)
	}
	if len(got.Top5) != len(want.Top5) {
		t.Fatalf("top5 %v, want %v", got.Top5, want.Top5)
	}
	for i := range want.Top5 {
		if got.Top5[i] != want.Top5[i] {
			t.Errorf("top5[%d] = feature %d, want %d", i, got.Top5[i], want.Top5[i])
		}
		if math.Abs(got.Top5Scores[i]-want.Top5Scores[i]) > 1e-12 {
			t.Errorf("top5 score[%d] = %v, want %v", i, got.Top5Scores[i], want.Top5Scores[i])
		}
	}
	for i := range want.Coarse {
		if math.Abs(got.Coarse[i]-want.Coarse[i]) > 1e-12 {
			t.Errorf("coarse[%d] = %v, want %v", i, got.Coarse[i], want.Coarse[i])
		}
	}
}

// goldenBundle decodes the committed bundle.
func goldenBundle(t testing.TB) *Bundle {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "bundle.golden.gob"))
	if err != nil {
		t.Fatalf("missing fixture (regenerate with -update): %v", err)
	}
	b, err := LoadBundle(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("the golden bundle no longer loads — the model format changed incompatibly: %v", err)
	}
	return b
}

// TestGoldenModelRoundTrip re-saves the loaded fixture and checks the
// second generation still behaves identically — Save∘LoadBundle must be
// idempotent, not merely load-compatible.
func TestGoldenModelRoundTrip(t *testing.T) {
	m := goldenBundle(t)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	a, b := expectFrom(m.General), expectFrom(m2.General)
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("round-trip diverged:\n%s\n%s", aj, bj)
	}
}

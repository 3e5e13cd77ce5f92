package forest

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden fixtures")

// goldenTraining builds a deterministic synthetic training set: 3 causes
// over 6 features, each cause shifting two features.
func goldenTraining() (x [][]float64, labels []int) {
	rng := rand.New(rand.NewSource(41))
	const causes, features, perCause = 3, 6, 60
	for c := 0; c < causes; c++ {
		for i := 0; i < perCause; i++ {
			row := make([]float64, features)
			for j := range row {
				row[j] = rng.NormFloat64()
			}
			row[2*c] += 3
			row[2*c+1] -= 3
			x = append(x, row)
			labels = append(labels, c)
		}
	}
	return x, labels
}

// goldenProbes are the inputs whose scores the golden file pins down.
func goldenProbes() [][]float64 {
	rng := rand.New(rand.NewSource(43))
	probes := make([][]float64, 8)
	for i := range probes {
		row := make([]float64, 6)
		for j := range row {
			row[j] = rng.NormFloat64() * 2
		}
		probes[i] = row
	}
	return probes
}

func goldenForest() *Extensible {
	x, labels := goldenTraining()
	return FitExtensible(x, labels, 3, Config{Trees: 7, Tree: TreeConfig{MaxDepth: 5}, Seed: 5})
}

type forestExpect struct {
	Trees   int         `json:"trees"`
	Causes  int         `json:"causes"`
	Scores  [][]float64 `json:"scores"`
	Unknown [][]float64 `json:"unknown"`
}

func expectOf(e *Extensible) forestExpect {
	exp := forestExpect{Trees: e.Forest().Trees(), Causes: e.Causes()}
	trees := oracle(e.Wire())
	for _, p := range goldenProbes() {
		exp.Scores = append(exp.Scores, e.Scores(p))
		exp.Unknown = append(exp.Unknown, oracleProba(trees, p))
	}
	return exp
}

// encode writes e's Wire form with gob, as core's bundle embeds it.
func encode(t *testing.T, e *Extensible) *bytes.Buffer {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(e.Wire()); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// decode rebuilds the forest whose Wire form raw encodes.
func decode(t *testing.T, raw []byte) *Extensible {
	t.Helper()
	var w Wire
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&w); err != nil {
		t.Fatal(err)
	}
	e, err := w.Extensible()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestGoldenExtensibleFormat guards the gob wire format and the fitted
// ensemble's behavior: the committed fixture must still load, score exactly
// as recorded, and — since the wire struct contains no maps — re-encode to
// the very same bytes. Refresh both files with `go test -run Golden -update`
// after an intentional format change.
func TestGoldenExtensibleFormat(t *testing.T) {
	gobPath := filepath.Join("testdata", "extensible.golden.gob")
	jsonPath := filepath.Join("testdata", "extensible.golden.json")

	if *update {
		e := goldenForest()
		buf := encode(t, e)
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(gobPath, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		js, err := json.MarshalIndent(expectOf(e), "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(jsonPath, append(js, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes) and %s", gobPath, buf.Len(), jsonPath)
		return
	}

	raw, err := os.ReadFile(gobPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	e := decode(t, raw)
	var want forestExpect
	js, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(js, &want); err != nil {
		t.Fatal(err)
	}

	if e.Forest().Trees() != want.Trees || e.Causes() != want.Causes {
		t.Fatalf("loaded %d trees / %d causes, want %d / %d",
			e.Forest().Trees(), e.Causes(), want.Trees, want.Causes)
	}
	if err := compareScores(expectOf(e), want); err != nil {
		t.Fatal(err)
	}

	// Byte-stable re-encode: the wire format has no maps, so encoding the
	// loaded forest must reproduce the fixture exactly.
	if buf := encode(t, e); !bytes.Equal(buf.Bytes(), raw) {
		t.Fatalf("re-encoded forest differs from fixture (%d vs %d bytes)", buf.Len(), len(raw))
	}
}

// TestGoldenExtensibleRoundTrip checks that a freshly fitted forest (same
// seeds) still matches the committed expectations — i.e. the training
// procedure itself, not just the serialized artifact, is stable.
func TestGoldenExtensibleRoundTrip(t *testing.T) {
	if *update {
		t.Skip("fixtures being rewritten")
	}
	js, err := os.ReadFile(filepath.Join("testdata", "extensible.golden.json"))
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	var want forestExpect
	if err := json.Unmarshal(js, &want); err != nil {
		t.Fatal(err)
	}
	loaded := decode(t, encode(t, goldenForest()).Bytes())
	if err := compareScores(expectOf(loaded), want); err != nil {
		t.Fatal(err)
	}
}

func compareScores(got, want forestExpect) error {
	const tol = 1e-12
	if len(got.Scores) != len(want.Scores) || len(got.Unknown) != len(want.Unknown) {
		return fmt.Errorf("probe count mismatch: %d/%d vs %d/%d",
			len(got.Scores), len(got.Unknown), len(want.Scores), len(want.Unknown))
	}
	for i := range want.Scores {
		for j := range want.Scores[i] {
			if math.Abs(got.Scores[i][j]-want.Scores[i][j]) > tol {
				return fmt.Errorf("probe %d score %d: got %v want %v", i, j, got.Scores[i][j], want.Scores[i][j])
			}
		}
		for j := range want.Unknown[i] {
			if math.Abs(got.Unknown[i][j]-want.Unknown[i][j]) > tol {
				return fmt.Errorf("probe %d unknown %d: got %v want %v", i, j, got.Unknown[i][j], want.Unknown[i][j])
			}
		}
	}
	return nil
}

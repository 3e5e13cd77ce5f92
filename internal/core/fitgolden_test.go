package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diagnet/internal/nn"
)

// TestFitGolden pins the bits of a network fit: the SHA-256 over every
// parameter value's IEEE-754 bits, in Params order, of a 2-epoch
// TrainGeneral on testConfig and of one Specialize after it. A change to
// the training step that moves a single bit of either fit fails here.
// -update rewrites testdata/fit.golden.
func TestFitGolden(t *testing.T) {
	train, _ := trainTestData(t)
	cfg := testConfig()
	cfg.Epochs = 2
	general := TrainGeneral(train, knownRegions(), cfg).Model
	spec := general.Specialize(train, train.Samples[0].Service).Model

	h := sha256.New()
	var b [8]byte
	for _, net := range []*nn.Network{general.Net, spec.Net} {
		for _, p := range net.Params() {
			for _, v := range p.Value.Data {
				binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
				h.Write(b[:])
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))

	path := filepath.Join("testdata", "fit.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != strings.TrimSpace(string(want)) {
		t.Fatalf("the fit's parameters hash to %s, want %s", got, strings.TrimSpace(string(want)))
	}
}

package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"diagnet/internal/probe"
)

func TestBundleSpecializeAllAndRouting(t *testing.T) {
	m := trainedModel(t)
	train, _ := trainTestData(t)
	b := NewBundle(m)
	svcID := train.Samples[0].Service
	results := b.SpecializeAll(train, []int{svcID, 9999})
	if len(results) != 1 {
		t.Fatalf("specialized %d services, want 1 (9999 has no data)", len(results))
	}
	if b.ModelFor(svcID).ServiceID != svcID {
		t.Fatal("routing to specialized model failed")
	}
	if b.ModelFor(12345) != m {
		t.Fatal("fallback to general model failed")
	}
}

func TestBundleSaveLoadRoundTrip(t *testing.T) {
	m := trainedModel(t)
	train, test := trainTestData(t)
	b := NewBundle(m)
	svcID := train.Samples[0].Service
	b.SpecializeAll(train, []int{svcID})

	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Specialized) != 1 {
		t.Fatalf("loaded %d specialized models", len(loaded.Specialized))
	}
	s := &test.Samples[0]
	a := b.ModelFor(svcID).Diagnose(s.Features, test.Layout)
	c := loaded.ModelFor(svcID).Diagnose(s.Features, test.Layout)
	for j := range a.Final {
		if a.Final[j] != c.Final[j] {
			t.Fatal("loaded bundle diagnoses differently")
		}
	}
}

func TestLoadBundleGarbage(t *testing.T) {
	if _, err := LoadBundle(bytes.NewBufferString("junk")); err == nil {
		t.Fatal("want error")
	}
}

// v1FixtureBundle is the bundle testdata/bundle.v1.golden.gob holds, as the
// version-1 writer saved it: the synthetic general model, service 3 as a
// head over its trunk with head weights of its own, and service 5 as a
// private copy of the whole network with one trunk bit flipped.
func v1FixtureBundle() *Bundle {
	g := syntheticModel(6, []int{24, 12})
	b := NewBundle(g)
	head := g.derive(headOver(g.Net), 3)
	for _, p := range head.Net.Params()[len(trunkParams(g.Net)):] {
		for j := range p.Value.Data {
			p.Value.Data[j] *= -1.25
		}
	}
	b.Specialized[3] = head
	diverged := g.derive(g.Net.Clone(), 5)
	w := trunkParams(diverged.Net)[2].Value
	w.Data[7] = math.Float64frombits(math.Float64bits(w.Data[7]) ^ 1)
	b.Specialized[5] = diverged
	return b
}

// fixtureRows diagnoses goldenInput under three layouts for the general
// model, both services and one unknown service.
func fixtureRows(b *Bundle) []Row {
	full := probe.FullLayout()
	x := goldenInput()
	var rows []Row
	for _, layout := range []probe.Layout{full, b.General.TrainLayout, probe.NewLayout(b.General.TrainLayout.Landmarks[:4])} {
		for _, svc := range []int{-1, 3, 5, 77} {
			rows = append(rows, Row{Service: svc, Layout: layout, Features: full.Project(x, layout)})
		}
	}
	return rows
}

// The committed version-1 bundle still loads, to one forest and two trunks
// (the diverged service keeps its own), with every parameter bit-equal to
// the bundle it was saved from; re-saved it becomes version 2, and both
// loads answer identically.
func TestBundleV1GoldenLoads(t *testing.T) {
	blob, err := os.ReadFile(filepath.Join("testdata", "bundle.v1.golden.gob"))
	if err != nil {
		t.Fatal(err)
	}
	v1, err := LoadBundle(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	assertResident(t, "version 1", v1, 2, 1)
	src := v1FixtureBundle()
	for id, m := range src.Specialized {
		if !reflect.DeepEqual(paramBits(m.Net), paramBits(v1.Specialized[id].Net)) {
			t.Fatalf("service %d: the loaded parameters differ from the saved ones", id)
		}
	}

	var buf bytes.Buffer
	if err := v1.Save(&buf); err != nil {
		t.Fatal(err)
	}
	var wire bundleWire
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.General != nil || len(wire.Services) != 2 || wire.Services[0].Model != nil || wire.Services[1].Model == nil {
		t.Fatal("Save must write version 2: service 3 as a head, service 5 as a complete model")
	}
	v2, err := LoadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertResident(t, "version 2", v2, 2, 1)
	rows := fixtureRows(src)
	want := v1.NewSession().DiagnoseRows(context.Background(), rows)
	if got := v2.NewSession().DiagnoseRows(context.Background(), rows); !reflect.DeepEqual(want, got) {
		t.Fatal("the version-2 re-save diagnoses differently from the version-1 bundle")
	}
	if got := src.NewSession().DiagnoseRows(context.Background(), rows); !reflect.DeepEqual(want, got) {
		t.Fatal("the version-1 bundle diagnoses differently from the bundle it was saved from")
	}
}

// FuzzLoadModelFile feeds a file under -model-dir to the two decoders it
// meets at boot, LoadBundle and then Load (serving's loadBundleOrModel): a
// malformed file is an error, never a panic.
func FuzzLoadModelFile(f *testing.F) {
	for _, name := range []string{"bundle.v1.golden.gob", "model.golden.gob"} {
		blob, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	var v2 bytes.Buffer
	if err := v1FixtureBundle().Save(&v2); err != nil {
		f.Fatal(err)
	}
	f.Add(v2.Bytes())
	f.Add(forestFeatureBeyondInt32(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := LoadBundle(bytes.NewReader(data)); err == nil {
			return
		}
		Load(bytes.NewReader(data))
	})
}

// forestFeatureBeyondInt32 is the golden model file with its forest's first
// split reading feature 2³², which the forest's resident int32 would keep
// as feature 0: Load must refuse it.
func forestFeatureBeyondInt32(f *testing.F) []byte {
	blob, err := os.ReadFile(filepath.Join("testdata", "model.golden.gob"))
	if err != nil {
		f.Fatal(err)
	}
	m, err := Load(bytes.NewReader(blob))
	if err != nil {
		f.Fatal(err)
	}
	aux := m.Aux.Wire()
	root := &aux.Trees[0].Nodes[0]
	if root.Left < 0 {
		f.Fatal("the golden forest's first tree is a single leaf")
	}
	root.Feature = 1 << 32
	var wire modelWire
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&wire); err != nil {
		f.Fatal(err)
	}
	var auxBuf, out bytes.Buffer
	if err := gob.NewEncoder(&auxBuf).Encode(aux); err != nil {
		f.Fatal(err)
	}
	wire.Aux = auxBuf.Bytes()
	if err := gob.NewEncoder(&out).Encode(wire); err != nil {
		f.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(out.Bytes())); err == nil {
		f.Fatal("Load accepted a forest split on feature 2³²")
	}
	return out.Bytes()
}

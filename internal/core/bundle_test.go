package core

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"diagnet/internal/forest"
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

// fixtureBundle is the bundle testdata/bundle.golden.gob holds: the
// synthetic general model, service 3 as a head over its trunk with head
// weights of its own, and service 5 as a private copy of the whole network
// with one trunk bit flipped.
func fixtureBundle() *Bundle {
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

// The committed bundle loads to one forest and two trunks (the diverged
// service keeps its own), with every parameter bit-equal to the bundle it
// was saved from, and answers as that bundle does. Re-saved, it keeps
// service 3 as a head and service 5 complete, and Save∘LoadBundle∘Save
// gives Save∘LoadBundle's bytes.
func TestBundleGoldenLoads(t *testing.T) {
	golden := goldenBundle(t)
	assertResident(t, "golden", golden, 2, 1)
	src := fixtureBundle()
	if !reflect.DeepEqual(paramBits(src.General.Net), paramBits(golden.General.Net)) {
		t.Fatal("general: the loaded parameters differ from the saved ones")
	}
	for id, m := range src.Specialized {
		if !reflect.DeepEqual(paramBits(m.Net), paramBits(golden.Specialized[id].Net)) {
			t.Fatalf("service %d: the loaded parameters differ from the saved ones", id)
		}
	}
	rows := fixtureRows(src)
	want := src.NewSession().DiagnoseRows(context.Background(), rows)
	if got := golden.NewSession().DiagnoseRows(context.Background(), rows); !reflect.DeepEqual(want, got) {
		t.Fatal("the golden bundle diagnoses differently from the bundle it was saved from")
	}

	var first bytes.Buffer
	if err := golden.Save(&first); err != nil {
		t.Fatal(err)
	}
	var wire bundleWire
	if err := gob.NewDecoder(bytes.NewReader(first.Bytes())).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if len(wire.Services) != 2 || wire.Services[0].Model != nil || wire.Services[1].Model == nil {
		t.Fatal("Save must write service 3 as a head and service 5 as a complete model")
	}
	again, err := LoadBundle(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := again.Save(&second); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("Save∘LoadBundle∘Save differs from Save∘LoadBundle")
	}
}

// legacyModel and legacyBundle have the shape of the two retired model
// formats: one model whose network and forest are nested gob streams, and
// a bundle of such models, one per service.
type legacyModel struct {
	Cfg            Config
	TrainLandmarks []int
	FullLandmarks  []int
	Known          []int
	Norm           probe.Normalizer
	Net            []byte
	Aux            []byte
	ServiceID      int
}

type legacyBundle struct {
	General     []byte
	ServiceIDs  []int
	Specialized [][]byte
}

// legacyBlobs encodes the fixture bundle in both retired formats.
func legacyBlobs(t testing.TB) (model, bundle []byte) {
	t.Helper()
	encode := func(v any) []byte { return encodeGob(t, v) }
	b := fixtureBundle()
	modelOf := func(m *Model) []byte {
		return encode(legacyModel{
			Cfg: m.Cfg, TrainLandmarks: m.TrainLayout.Landmarks, FullLandmarks: m.FullLayout.Landmarks,
			Known: sortedKnown(m.Known), Norm: *m.Norm, Net: encode(m.Net.Wire()), Aux: encode(m.Aux.Wire()),
			ServiceID: m.ServiceID,
		})
	}
	model = modelOf(b.General)
	return model, encode(legacyBundle{General: model, ServiceIDs: []int{3, 5}, Specialized: [][]byte{modelOf(b.Specialized[3]), modelOf(b.Specialized[5])}})
}

// A lone model file, a bundle of nested model streams and a version-2
// bundle (each parameter a gob []float64: testdata/bundle.v2.gob is the
// golden fixture as it was written then), the formats before this one, are
// refused with an error that names the format it wanted and how to make
// one, and wraps gob's own complaint.
func TestLoadBundleRefusesRetiredFormats(t *testing.T) {
	model, bundle := legacyBlobs(t)
	v2, err := os.ReadFile(filepath.Join("testdata", "bundle.v2.gob"))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name  string
		blob  []byte
		cause string
	}{
		{"model", model, "type mismatch"},
		{"bundle of models", bundle, "type mismatch"},
		{"version-2 bundle", v2, "wrong type"},
	} {
		_, err := LoadBundle(bytes.NewReader(c.blob))
		if err == nil {
			t.Fatalf("LoadBundle accepted a %s file of a retired format", c.name)
		}
		for _, want := range []string{"not a version-3 bundle", "train it again with diagnet-train", c.cause} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s file: error %q does not say %q", c.name, err, want)
			}
		}
		if errors.Unwrap(err) == nil {
			t.Errorf("%s file: error %q wraps no cause", c.name, err)
		}
	}
}

// goldenWire decodes the committed bundle's wire form: the general model,
// service 3 as a head and service 5 complete.
func goldenWire(t testing.TB) bundleWire {
	t.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "bundle.golden.gob"))
	if err != nil {
		t.Fatal(err)
	}
	var wire bundleWire
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	return wire
}

// encodeGob returns v's gob encoding.
func encodeGob(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// serviceLists re-encodes the golden bundle with a service list Save never
// writes: an entry repeated, entries out of order, and an entry under
// service −1, the general model's own ID.
func serviceLists(t testing.TB) map[string][]byte {
	out := map[string][]byte{}
	for name, spoil := range map[string]func(s []serviceForm) []serviceForm{
		"repeated entry": func(s []serviceForm) []serviceForm { return []serviceForm{s[0], s[0], s[1]} },
		"out of order":   func(s []serviceForm) []serviceForm { return []serviceForm{s[1], s[0]} },
		"service ID −1":  func(s []serviceForm) []serviceForm { s[0].ID = -1; return s },
	} {
		wire := goldenWire(t)
		wire.Services = spoil(wire.Services)
		out[name] = encodeGob(t, &wire)
	}
	return out
}

// A service list Save would not have written is refused, naming the
// entry: a repeated entry would silently replace the first, and one under
// service −1 would answer the general model's rows with its head.
func TestLoadBundleRefusesServiceLists(t *testing.T) {
	for name, blob := range serviceLists(t) {
		_, err := LoadBundle(bytes.NewReader(blob))
		if err == nil || !strings.Contains(err.Error(), "service entry") {
			t.Errorf("%s: LoadBundle returned %v, want an error naming the service entry", name, err)
		}
	}
	b := fixtureBundle()
	b.Specialized[-1] = b.Specialized[3]
	if err := b.Save(&bytes.Buffer{}); err == nil {
		t.Error("Save wrote a specialized model under service −1")
	}
}

// rawBytes is written as the byte string it holds, where nn.Floats writes
// whole values: with it a test can store a parameter of any length.
type rawBytes []byte

func (r rawBytes) GobEncode() ([]byte, error) { return r, nil }

// rawServiceForm is serviceForm with its head parameters as rawBytes.
type rawServiceForm struct {
	ID     int
	Head   []rawBytes
	Frozen []bool
	Model  *modelForm
}

// rawHeadWire is bundleWire whose entries are rawServiceForms.
type rawHeadWire struct {
	Base     modelForm
	Services []rawServiceForm
}

// malformedParams re-encodes the golden bundle with one parameter whose
// byte string is not a whole number of values (service 3's first head
// parameter, one byte short) and one whose length disagrees with its
// layer's dimensions (the general network's first, one value short).
func malformedParams(t testing.TB) map[string][]byte {
	wire := goldenWire(t)
	raw := rawHeadWire{Base: wire.Base}
	for _, e := range wire.Services {
		r := rawServiceForm{ID: e.ID, Frozen: e.Frozen, Model: e.Model}
		for _, v := range e.Head {
			b, _ := v.GobEncode()
			r.Head = append(r.Head, b)
		}
		raw.Services = append(raw.Services, r)
	}
	head := raw.Services[0].Head
	head[0] = head[0][:len(head[0])-1]
	odd := encodeGob(t, &raw)

	values := wire.Base.Net.Values
	values[0] = values[0][:len(values[0])-1]
	return map[string][]byte{"odd length": odd, "wrong length": encodeGob(t, &wire)}
}

// A parameter of a length its layer cannot hold is an error, never a
// panic, whether it is no whole number of values or the wrong number.
func TestLoadBundleRefusesMalformedParams(t *testing.T) {
	for name, blob := range malformedParams(t) {
		if _, err := LoadBundle(bytes.NewReader(blob)); err == nil {
			t.Errorf("%s: LoadBundle accepted the parameter", name)
		}
	}
}

// tinyBundle is a valid bundle a few kilobytes long, small enough for the
// fuzzer to mutate many times a second: two filters, one hidden layer of
// four units, a two-tree forest and one head over the trunk.
func tinyBundle(f *testing.F) []byte {
	g := syntheticModel(2, []int{4})
	causes := g.FullLayout.NumFeatures()
	rng := rand.New(rand.NewSource(5))
	xs, labels := make([][]float64, 24), make([]int, 24)
	for i := range xs {
		xs[i] = make([]float64, causes)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()
		}
		labels[i] = i % 4
	}
	g.Aux = forest.FitExtensible(xs, labels, causes, forest.Config{Trees: 2, Tree: forest.TreeConfig{MaxDepth: 2}, Seed: 3})
	b := NewBundle(g)
	b.Specialized[3] = g.derive(headOver(g.Net), 3)
	var buf bytes.Buffer
	if err := b.Save(&buf); err != nil {
		f.Fatal(err)
	}
	if _, err := LoadBundle(bytes.NewReader(buf.Bytes())); err != nil {
		f.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzLoadModelFile feeds a file under -model-dir to the decoder it meets
// at boot, LoadBundle: a malformed file is an error, never a panic.
func FuzzLoadModelFile(f *testing.F) {
	blob, err := os.ReadFile(filepath.Join("testdata", "bundle.golden.gob"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(tinyBundle(f))
	f.Add(blob)
	f.Add(forestFeatureBeyondInt32(f))
	model, bundle := legacyBlobs(f)
	f.Add(model)
	f.Add(bundle)
	v2, err := os.ReadFile(filepath.Join("testdata", "bundle.v2.gob"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	f.Add(serviceLists(f)["repeated entry"])
	params := malformedParams(f)
	f.Add(params["odd length"])
	f.Add(params["wrong length"])
	f.Fuzz(func(t *testing.T, data []byte) {
		LoadBundle(bytes.NewReader(data))
	})
}

// forestFeatureBeyondInt32 is the golden bundle with its forest's first
// split reading feature 2³², which the forest's resident int32 would keep
// as feature 0: LoadBundle must refuse it.
func forestFeatureBeyondInt32(f *testing.F) []byte {
	wire := goldenWire(f)
	root := &wire.Base.Aux.Trees[0].Nodes[0]
	if root.Left < 0 {
		f.Fatal("the golden forest's first tree is a single leaf")
	}
	root.Feature = 1 << 32
	out := encodeGob(f, &wire)
	if _, err := LoadBundle(bytes.NewReader(out)); err == nil {
		f.Fatal("LoadBundle accepted a forest split on feature 2³²")
	}
	return out
}

// loadBenchBlob is a bundle of the benchmark's shape, built once: the
// Table I network (24 filters, 317→512→128→7), twelve heads of their own
// over its trunk — 1,028,331 parameter values in all — and a forest of
// forest.DefaultConfig's 50 trees.
var loadBenchBlob []byte

// BenchmarkLoadBundle is a replica's boot decode: one benchmark-shaped
// bundle file to a Bundle.
func BenchmarkLoadBundle(b *testing.B) {
	if loadBenchBlob == nil {
		g := syntheticModel(24, []int{512, 128})
		causes := g.FullLayout.NumFeatures()
		rng := rand.New(rand.NewSource(8))
		xs, labels := make([][]float64, 160), make([]int, 160)
		for i := range xs {
			xs[i] = make([]float64, causes)
			for j := range xs[i] {
				xs[i][j] = rng.Float64()
			}
			labels[i] = i % (causes + 1)
		}
		g.Aux = forest.FitExtensible(xs, labels, causes, forest.DefaultConfig())
		bundle := NewBundle(g)
		k := len(trunkParams(g.Net))
		for id := 0; id < 12; id++ {
			m := g.derive(headOver(g.Net), id)
			for _, p := range m.Net.Params()[k:] {
				for j := range p.Value.Data {
					p.Value.Data[j] *= 1 + float64(id)/16
				}
			}
			bundle.Specialized[id] = m
		}
		var buf bytes.Buffer
		if err := bundle.Save(&buf); err != nil {
			b.Fatal(err)
		}
		loadBenchBlob = buf.Bytes()
	}
	b.SetBytes(int64(len(loadBenchBlob)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := LoadBundle(bytes.NewReader(loadBenchBlob)); err != nil {
			b.Fatal(err)
		}
	}
}

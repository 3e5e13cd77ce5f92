package core

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"

	"diagnet/internal/forest"
	"diagnet/internal/mat"
	"diagnet/internal/nn"
	"diagnet/internal/probe"
)

// resident counts what a bundle keeps in memory: distinct trunks (as sets
// of value matrices — every trunk parameter is checked, not a
// representative), forests and normalizers over all of its models.
func resident(b *Bundle) (trunks, forests, norms int) {
	var seen [][]*nn.Param
	aux, norm := map[*forest.Extensible]bool{}, map[*probe.Normalizer]bool{}
	models := []*Model{b.General}
	for _, m := range b.Specialized {
		models = append(models, m)
	}
	for _, m := range models {
		aux[m.Aux], norm[m.Norm] = true, true
		params := trunkParams(m.Net)
		known := false
		for _, s := range seen {
			known = known || sameTrunk(s, params)
		}
		if !known {
			seen = append(seen, params)
		}
	}
	return len(seen), len(aux), len(norm)
}

func assertResident(t *testing.T, when string, b *Bundle, trunks, forests int) {
	t.Helper()
	gotTrunks, gotForests, gotNorms := resident(b)
	if gotTrunks != trunks || gotForests != forests || gotNorms != forests {
		t.Fatalf("%s: bundle of %d models holds %d trunks, %d forests, %d normalizers, want %d, %d, %d",
			when, 1+len(b.Specialized), gotTrunks, gotForests, gotNorms, trunks, forests, forests)
	}
}

// A bundle holds the frozen extractor and the forest once (the serving
// package's twin of this test covers registration and journal recovery):
// after SpecializeAll and after Save → LoadBundle of those bytes, which
// carry both once, plus each service's head. A model decoded on its own
// shares the forest once attached, and keeps its trunk. A specialized
// model whose trunk differs from the general's in a single bit keeps it
// private, is passed in its own trunk group, and answers exactly what it
// answers standing alone.
func TestBundleHoldsOneTrunkOneForest(t *testing.T) {
	b := trainedBundle(t)
	assertResident(t, "after SpecializeAll", b, 1, 1)
	if n := len(trunkParams(b.General.Net)); n != 4 {
		t.Fatalf("the trunk has %d parameters, want LandPool's two and the first Dense's two", n)
	}

	var blob bytes.Buffer
	if err := b.Save(&blob); err != nil {
		t.Fatal(err)
	}
	var general bytes.Buffer
	if err := NewBundle(b.General).Save(&general); err != nil {
		t.Fatal(err)
	}
	heads := 0 // at most nine bytes per float64 in gob
	for _, m := range b.Specialized {
		for _, p := range m.Net.Params()[4:] {
			heads += 9 * len(p.Value.Data)
		}
	}
	if limit := general.Len() + heads + 4096; blob.Len() > limit {
		t.Fatalf("the bundle takes %d B, want at most %d: the general model (%d B) and %d B of heads", blob.Len(), limit, general.Len(), heads)
	}
	loaded, err := LoadBundle(bytes.NewReader(blob.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	assertResident(t, "after Save → LoadBundle", loaded, 1, 1)
	mixed, want := mixedCorpus(t, b)
	if got := loaded.NewSession().DiagnoseRows(context.Background(), mixed); !reflect.DeepEqual(want, got) {
		t.Fatal("the loaded bundle diagnoses differently from the one that was saved")
	}

	// Attach never touches the model it is given, and gives a model decoded
	// on its own (from a bundle of its own here) the general model's forest
	// and normalizer. Its trunk, bit-equal but separately allocated, stays
	// its own.
	var svc int
	for svc = range b.Specialized {
	}
	var one bytes.Buffer
	if err := NewBundle(b.Specialized[svc]).Save(&one); err != nil {
		t.Fatal(err)
	}
	lone, err := LoadBundle(&one)
	if err != nil {
		t.Fatal(err)
	}
	alone := lone.General
	if held := loaded.Attach(svc, alone); held == alone || held.Aux != loaded.General.Aux || held.Norm != loaded.General.Norm || held.Net != alone.Net {
		t.Fatal("attaching a separately decoded model must hold one that shares the general forest and normalizer and keeps the model's network")
	}
	if alone.Aux == loaded.General.Aux || alone.Norm == loaded.General.Norm {
		t.Fatal("Attach modified the model it was given")
	}
	assertResident(t, "after attaching a separately decoded model", loaded, 2, 1)

	// One flipped bit: the trunk stays private through Save → LoadBundle.
	diverged := b.Specialized[svc].derive(b.Specialized[svc].Net.Clone(), svc)
	w := trunkParams(diverged.Net)[2].Value
	w.Data[7] = math.Float64frombits(math.Float64bits(w.Data[7]) ^ 1)
	foreign := NewBundle(b.General)
	for id, m := range b.Specialized {
		foreign.Specialized[id] = m
	}
	if held := foreign.Attach(svc, diverged); held != diverged {
		t.Fatal("a model that shares the forest and differs in the trunk has nothing to fold")
	}
	blob.Reset()
	if err := foreign.Save(&blob); err != nil {
		t.Fatal(err)
	}
	if foreign, err = LoadBundle(&blob); err != nil {
		t.Fatal(err)
	}
	assertResident(t, "with one diverged trunk", foreign, 2, 1)
	sess := foreign.NewSession()
	got := sess.DiagnoseRows(context.Background(), mixed)
	own := 0
	for i, r := range mixed {
		if r.Service != svc {
			if !reflect.DeepEqual(want[i], got[i]) {
				t.Fatalf("row %d (service %d): a foreign trunk in the batch changed another model's diagnosis", i, r.Service)
			}
			continue
		}
		own++
		if alone := foreign.Specialized[svc].Diagnose(r.Features, r.Layout); !reflect.DeepEqual(alone, got[i]) {
			t.Fatalf("row %d: the diverged model answers differently in a mixed batch than alone", i)
		}
	}
	if p := sess.Passes(); len(p) != 2 || p[0] != len(mixed)-own || p[1] != own {
		t.Fatalf("passes %v, want the shared trunk's %d rows and the private trunk's %d", p, len(mixed)-own, own)
	}
}

// Specialize and Retrain(HeadOnly) share the source's trunk and copy its
// head; a full Retrain copies everything. The wire keeps saying Frozen.
func TestDerivedModelsAliasTheTrunk(t *testing.T) {
	m, d := retrainFixture(t)
	headOnly, err := m.Retrain(d, RetrainOptions{Epochs: 1, Seed: 7, HeadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	full, err := m.Retrain(d, RetrainOptions{Epochs: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	k := len(trunkParams(m.Net))
	for i, src := range m.Net.Params() {
		h, f := headOnly.Model.Net.Params()[i], full.Model.Net.Params()[i]
		if f.Value == src.Value || f.Frozen {
			t.Fatalf("param %d: a full retrain must own an unfrozen copy", i)
		}
		if i < k && (h.Value != src.Value || !h.Frozen || h.Grad != nil) {
			t.Fatalf("trunk param %d: a head-only retrain must alias the source's matrix, frozen, without a gradient", i)
		}
		if i >= k && (h.Value == src.Value || h.Frozen) {
			t.Fatalf("head param %d: a head-only retrain must own a trainable copy", i)
		}
	}
	var buf bytes.Buffer
	if err := NewBundle(headOnly.Model).Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBundle(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range back.General.Net.Params() {
		if p.Frozen != (i < k) {
			t.Fatalf("param %d decoded with Frozen = %v", i, p.Frozen)
		}
	}
}

// Eq. 1 on a head over an aliased trunk, fused with rows of other services
// and layouts: the attention a bundle session reports for a specialized
// model's row is |∇L*| normalized, with ∇L* taken by central differences
// of the ideal-label loss through that model's own complete network.
func TestAttentionOfSharedTrunkPassMatchesFiniteDifferences(t *testing.T) {
	b := trainedBundle(t)
	mixed, _ := mixedCorpus(t, b)
	mixed = mixed[:40]
	got := b.NewSession().DiagnoseRows(context.Background(), mixed)
	const h = 1e-5
	checked := 0
	for i, r := range mixed {
		m, specialized := b.Specialized[r.Service]
		if !specialized || checked == 6 {
			continue
		}
		checked++
		net := m.Net.View()
		x := mat.FromSlice(1, len(r.Features), m.Norm.Apply(r.Features, r.Layout))
		target := int(got[i].Family)
		loss := func() float64 {
			z := net.Forward(x).Row(0)
			max := z[0]
			for _, v := range z {
				max = math.Max(max, v)
			}
			var sum float64
			for _, v := range z {
				sum += math.Exp(v - max)
			}
			return max + math.Log(sum) - z[target]
		}
		numeric := make([]float64, x.Cols)
		var norm float64
		for j := range numeric {
			orig := x.Data[j]
			x.Data[j] = orig + h
			up := loss()
			x.Data[j] = orig - h
			down := loss()
			x.Data[j] = orig
			numeric[j] = math.Abs(up-down) / (2 * h)
			norm += numeric[j]
		}
		for j, a := range got[i].Attention {
			if diff := math.Abs(a - numeric[j]/norm); diff > 1e-6 {
				t.Fatalf("row %d (service %d) feature %d: attention %v vs finite differences %v (diff %.3g)", i, r.Service, j, a, numeric[j]/norm, diff)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no row of a specialized model was checked")
	}
}

// Saving a bundle twice gives the same bytes, and so does saving what
// LoadBundle made of them — for heads over the general trunk, for a
// complete private model (the diverged service of the golden fixture) and
// for a lone model: nothing in the bundle's form is a map or a nested
// stream, and Known is sorted. Every parameter loads with the bits it was
// saved with, the values a float64 rounding or a canonical NaN would lose
// among them (specialBundle).
func TestSaveTwiceSameBytes(t *testing.T) {
	trained := trainedBundle(t)
	special := specialBundle()
	for name, b := range map[string]*Bundle{"trained": trained, "fixture": fixtureBundle(), "lone": NewBundle(trained.General), "special values": special} {
		save := func(b *Bundle) []byte {
			var buf bytes.Buffer
			if err := b.Save(&buf); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}
		first := save(b)
		for i := 0; i < 20; i++ {
			if !bytes.Equal(first, save(b)) {
				t.Fatalf("%s bundle: save %d differs from the first", name, i)
			}
		}
		loaded, err := LoadBundle(bytes.NewReader(first))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, save(loaded)) {
			t.Fatalf("%s bundle: saving the loaded bundle gives other bytes", name)
		}
		if b != special {
			continue
		}
		for id, m := range map[int]*Model{-1: b.General, 3: b.Specialized[3], 5: b.Specialized[5]} {
			if !reflect.DeepEqual(paramBits(m.Net), paramBits(loaded.ModelFor(id).Net)) {
				t.Errorf("model %d: a parameter loads with other bits than it was saved with", id)
			}
		}
	}
}

// specialBundle is the golden fixture with −0, a NaN with a payload, the
// smallest subnormal and ±MaxFloat64 planted in the general model's trunk
// and head, in service 3's head and in service 5's private network.
func specialBundle() *Bundle {
	b := fixtureBundle()
	special := []float64{math.Copysign(0, -1), math.Float64frombits(0x7ff8000000000001), math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	for _, m := range []*Model{b.General, b.Specialized[3], b.Specialized[5]} {
		ps := m.Net.Params()
		for _, p := range []*nn.Param{ps[0], ps[len(ps)-2]} {
			copy(p.Value.Data[1:], special)
		}
	}
	return b
}

// BenchmarkMixedPass is the bulk_mixed_routed micro-batch in isolation: 28
// rows over 12 specialized heads and 3 layouts on the Table I architecture.
// "fused" is what a serving worker does now — one bundle session, one
// trunk pass; "per_group" is what it did before — one pass per (service,
// layout) group on per-model sessions.
func BenchmarkMixedPass(b *testing.B) {
	general := syntheticModel(24, []int{512, 128})
	bundle := NewBundle(general)
	for id := 0; id < 12; id++ {
		bundle.Specialized[id] = general.derive(headOver(general.Net), id)
	}
	full := probe.FullLayout()
	layouts := []probe.Layout{full, general.TrainLayout, probe.NewLayout(general.TrainLayout.Landmarks[:5])}
	x := goldenInput()
	rows := make([]Row, 28)
	for i := range rows {
		layout := layouts[(i/2)%3]
		rows[i] = Row{Service: (i * 5) % 12, Layout: layout, Features: full.Project(x, layout)}
	}

	b.Run("fused", func(b *testing.B) {
		sess := bundle.NewSession()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sess.DiagnoseRows(context.Background(), rows)
		}
	})
	b.Run("per_group", func(b *testing.B) {
		type group struct {
			sess     *Session
			layout   probe.Layout
			features [][]float64
		}
		var groups []*group
		for _, r := range rows {
			var g *group
			for _, c := range groups {
				if c.sess.Model() == bundle.Specialized[r.Service] && len(c.layout.Landmarks) == len(r.Layout.Landmarks) {
					g = c
				}
			}
			if g == nil {
				g = &group{sess: bundle.Specialized[r.Service].NewSession(), layout: r.Layout}
				groups = append(groups, g)
			}
			g.features = append(g.features, r.Features)
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, g := range groups {
				g.sess.DiagnoseBatch(g.features, g.layout)
			}
		}
	})
}

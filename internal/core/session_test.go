package core

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"diagnet/internal/mat"
	"diagnet/internal/netsim"
	"diagnet/internal/nn"
	"diagnet/internal/probe"
)

// pathCorpus is a seeded corpus under the three layouts serving meets: the
// deployment-wide one (with landmarks unseen in training), the training
// one, and a 5-landmark degraded one mixing known and unseen landmarks.
func pathCorpus(t *testing.T, m *Model) (layouts []probe.Layout, rows [][][]float64) {
	t.Helper()
	_, test := trainTestData(t)
	five := probe.NewLayout([]int{netsim.BEAU, netsim.AMST, netsim.SING, netsim.HiddenLandmarks()[0], netsim.LOND})
	layouts = []probe.Layout{test.Layout, m.TrainLayout, five}
	rows = make([][][]float64, len(layouts))
	for li, layout := range layouts {
		for i := 0; i < 24; i++ {
			rows[li] = append(rows[li], test.Layout.Project(test.Samples[i].Features, layout))
		}
	}
	return layouts, rows
}

var cachedBundle *Bundle

// trainedBundle is the trained general model with the specialized models of
// three services, built once.
func trainedBundle(t *testing.T) *Bundle {
	t.Helper()
	if cachedBundle == nil {
		train, _ := trainTestData(t)
		b := NewBundle(trainedModel(t))
		for i := 0; len(b.Specialized) < 3; i++ {
			b.SpecializeAll(train, []int{train.Samples[i].Service})
		}
		cachedBundle = b
	}
	return cachedBundle
}

// mixedCorpus is pathCorpus crossed with the models of trainedBundle: every
// (service, layout, sample) as a DiagnoseRows row, shuffled, next to what
// that row's own model answers through Model.Diagnose. Service -1 and an
// unknown service are both the general model's.
func mixedCorpus(t *testing.T, b *Bundle) (rows []Row, want []*Diagnosis) {
	t.Helper()
	layouts, samples := pathCorpus(t, b.General)
	services := []int{-1, 987654}
	for id := range b.Specialized {
		services = append(services, id)
	}
	slices.Sort(services)
	for _, svc := range services {
		for li, layout := range layouts {
			for _, x := range samples[li][:8] {
				rows = append(rows, Row{Service: svc, Layout: layout, Features: x})
			}
		}
	}
	rand.New(rand.NewSource(5)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	for _, r := range rows {
		want = append(want, b.ModelFor(r.Service).Diagnose(r.Features, r.Layout))
	}
	return rows, want
}

// fusedSizes are the sizes a fragmented batch is served in (the row kernel,
// and whole tiles with rows past them) and the full one.
func fusedSizes(n int) []int { return []int{1, 2, 3, 5, 7, n} }

// There is one inference path: every entry point is a Session.DiagnoseRows
// pass, and no layer mixes rows, so all of them agree to the bit — five
// ways: Model.Diagnose, a one-model session, a fused same-layout batch, a
// batch that mixes layouts, and a bundle session's batch that mixes
// services and layouts in shuffled order.
func TestDiagnosePathsBitIdentical(t *testing.T) {
	m := trainedModel(t)
	layouts, rows := pathCorpus(t, m)
	sess := m.NewSession()
	for li, layout := range layouts {
		want := make([]*Diagnosis, len(rows[li]))
		for i, x := range rows[li] {
			want[i] = m.Diagnose(x, layout)
			if got := sess.Diagnose(x, layout); !reflect.DeepEqual(want[i], got) {
				t.Fatalf("layout %d row %d: Session.Diagnose differs from Model.Diagnose", li, i)
			}
		}
		for _, group := range fusedSizes(len(want)) {
			if got := sess.DiagnoseBatch(rows[li][:group], layout); !reflect.DeepEqual(want[:group], got) {
				t.Fatalf("layout %d: Session.DiagnoseBatch of %d rows differs from Model.Diagnose", li, group)
			}
		}
	}

	b := trainedBundle(t)
	mixed, want := mixedCorpus(t, b)
	bundleSess := b.NewSession()
	for _, group := range fusedSizes(len(mixed)) {
		if got := bundleSess.DiagnoseRows(context.Background(), mixed[:group]); !reflect.DeepEqual(want[:group], got) {
			t.Fatalf("bundle session: %d rows across services and layouts differ from their models' Model.Diagnose", group)
		}
		if p := bundleSess.Passes(); len(p) != 1 || p[0] != group {
			t.Fatalf("bundle session ran passes %v for %d rows that share the trunk, want one pass of all", p, group)
		}
	}
	// Across layouts only: each model's own session over its rows of the
	// shuffled corpus (a specialized model's session stands on the trunk it
	// aliases).
	for svc, model := range b.Specialized {
		var own []Row
		var ownWant []*Diagnosis
		for i, r := range mixed {
			if r.Service == svc {
				own, ownWant = append(own, r), append(ownWant, want[i])
			}
		}
		one := model.NewSession()
		for _, group := range fusedSizes(len(own)) {
			if got := one.DiagnoseRows(context.Background(), own[:group]); !reflect.DeepEqual(ownWant[:group], got) {
				t.Fatalf("service %d: %d rows across layouts differ from Model.Diagnose", svc, group)
			}
		}
	}
}

// The steady-state pass allocates what it returns and nothing for itself:
// every activation and gradient comes from the session's workspace, the
// bookkeeping from its scratch, and the forest scores into a buffer. What
// is left per row is its Diagnosis and the one slab behind its four score
// vectors; what is left per call is the result slice and the call's trace
// spans. Pinned in allocations and in bytes, for a single-group pass on
// both kinds of session and for a 28-row pass that mixes three widths and
// four heads (whose gather/scatter matrices are workspace matrices too).
func TestPassAllocations(t *testing.T) {
	b := trainedBundle(t)
	layouts, rows := pathCorpus(t, b.General)
	var batch [][]float64
	for len(batch) < 64 {
		batch = append(batch, rows[0]...)
	}
	batch = batch[:64]
	check := func(what string, n int, pass func()) {
		t.Helper()
		pass() // the first pass of a new size spills to the heap; the next Reset sizes the workspace
		if got, limit := testing.AllocsPerRun(20, pass), float64(28+2*n); got > limit {
			t.Errorf("%s of %d rows makes %v allocations, want at most %v", what, n, got, limit)
		}
		if got, limit := bytesPerRun(20, pass), float64(4096+2048*n); got > limit {
			t.Errorf("%s of %d rows allocates %.0f B, want at most %.0f (2 KiB per row: its Diagnosis and slab)", what, n, got, limit)
		}
	}
	for name, sess := range map[string]*Session{"model": b.General.NewSession(), "bundle": b.NewSession()} {
		for _, n := range []int{1, 64} {
			check(name+" session: a single-group pass", n, func() { sess.DiagnoseBatch(batch[:n], layouts[0]) })
		}
	}
	mixed, _ := mixedCorpus(t, b)
	mixed = mixed[:28]
	sess := b.NewSession()
	check("a pass over three widths and four heads", len(mixed), func() { sess.DiagnoseRows(context.Background(), mixed) })
}

// Model.Diagnose keeps its idle session across a garbage collection: the
// first call after two collections allocates what a warm call does, not a
// new session and a regrown workspace (a sync.Pool, which every collection
// empties, made the allocation rate of a bundle's models follow the GC
// rate).
func TestModelSessionSurvivesGC(t *testing.T) {
	m := syntheticModel(6, []int{24, 12})
	x, full := goldenInput(), probe.FullLayout()
	call := func() { m.Diagnose(x, full) }
	call()
	warm := bytesPerRun(10, call)
	runtime.GC()
	runtime.GC()
	if after := bytesPerRun(1, call); after > 1.5*warm {
		t.Fatalf("the first call after a GC allocates %.0f B, a warm call %.0f B", after, warm)
	}
}

// bytesPerRun is testing.AllocsPerRun for bytes: the mean heap allocation
// of one call of f.
func bytesPerRun(runs int, f func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(runs)
}

// cloneDiagnoses deep-copies results, so that nothing of the copy shares
// memory with the original or with the session that produced it.
func cloneDiagnoses(ds []*Diagnosis) []*Diagnosis {
	out := make([]*Diagnosis, len(ds))
	for i, d := range ds {
		c := *d
		c.Layout.Landmarks = slices.Clone(d.Layout.Landmarks)
		c.Coarse, c.Attention = slices.Clone(d.Coarse), slices.Clone(d.Attention)
		c.Tuned, c.Final = slices.Clone(d.Tuned), slices.Clone(d.Final)
		out[i] = &c
	}
	return out
}

// The lifetime rule of the pass's memory (DESIGN.md §8): nothing the
// session's workspace hands out outlives the pass, so everything a
// Diagnosis keeps must have been copied out of it. Results of pass N are
// compared with a deep copy of themselves after passes N+1…N+3 of other
// sizes and other service/layout mixes have overwritten the workspace — on
// a bundle session, a model session, and Model.Diagnose / CoarsePredict
// through the model's idle session. A Coarse that were still a row of the softmax
// matrix fails here.
func TestDiagnosisOutlivesThePass(t *testing.T) {
	b := trainedBundle(t)
	layouts, rows := pathCorpus(t, b.General)
	mixed, _ := mixedCorpus(t, b)
	ctx := context.Background()
	outlives := func(what string, kept []*Diagnosis, later ...func()) {
		t.Helper()
		want := cloneDiagnoses(kept)
		for _, pass := range later {
			pass()
		}
		if !reflect.DeepEqual(want, kept) {
			t.Errorf("%s: the results of a pass changed when the session ran its next passes", what)
		}
	}

	// Each session first runs its largest pass: that sizes the workspace,
	// so the passes below are served from it and not from the heap.
	bs := b.NewSession()
	bs.DiagnoseRows(ctx, mixed[:48])
	outlives("bundle session", bs.DiagnoseRows(ctx, mixed[:9]),
		func() { bs.DiagnoseRows(ctx, mixed[9:41]) },
		func() { bs.DiagnoseRows(ctx, mixed[41:42]) },
		func() { bs.DiagnoseBatch(rows[1], layouts[1]) })

	ms := b.General.NewSession()
	var across []Row
	for li, layout := range layouts {
		for _, x := range rows[li][20:] {
			across = append(across, Row{Service: -1, Layout: layout, Features: x})
		}
	}
	ms.DiagnoseRows(ctx, across)
	ms.DiagnoseBatch(rows[0], layouts[0])
	outlives("model session", ms.DiagnoseBatch(rows[0][:5], layouts[0]),
		func() { ms.DiagnoseBatch(rows[2], layouts[2]) },
		func() { ms.Diagnose(rows[1][7], layouts[1]) },
		func() { ms.DiagnoseRows(ctx, across) })

	m := b.General
	m.Diagnose(rows[0][1], layouts[0])
	coarse := m.CoarsePredict(rows[0][0], layouts[0])
	wantCoarse := slices.Clone(coarse)
	outlives("Model.Diagnose", []*Diagnosis{m.Diagnose(rows[0][0], layouts[0])},
		func() { m.Diagnose(rows[2][3], layouts[2]) },
		func() { m.CoarsePredict(rows[1][4], layouts[1]) },
		func() { m.Diagnose(rows[1][5], layouts[1]) })
	if !slices.Equal(wantCoarse, coarse) {
		t.Error("Model.CoarsePredict: the distribution changed when the model ran its next passes")
	}
}

// Top is Ranked cut short — same order, same tie-break — on a trained
// model's diagnoses and on the all-equal scores of the degenerate-gradient
// fallback.
func TestTopIsRankedCutShort(t *testing.T) {
	m := trainedModel(t)
	layouts, rows := pathCorpus(t, m)
	sess := m.NewSession()
	var ds []*Diagnosis
	for li, layout := range layouts {
		ds = append(ds, sess.DiagnoseBatch(rows[li], layout)...)
	}
	w := layouts[0].NumFeatures()
	uniform := make([]float64, w)
	for j := range uniform {
		uniform[j] = 1 / float64(w)
	}
	ds = append(ds, &Diagnosis{Final: uniform})
	for i, d := range ds {
		ranked := d.Ranked()
		for _, k := range []int{1, 5, len(d.Final), len(d.Final) + 3} {
			if got, want := d.Top(k), ranked[:min(k, len(ranked))]; !slices.Equal(got, want) {
				t.Fatalf("diagnosis %d: Top(%d) = %v, want Ranked()[:%d] = %v", i, k, got, k, want)
			}
		}
	}
}

// The forest half of the ensemble writes through the session's buffers and
// allocates nothing.
func TestAuxScoresAllocateNothing(t *testing.T) {
	m := trainedModel(t)
	layouts, rows := pathCorpus(t, m)
	for li, layout := range layouts {
		fullVec, scores := make([]float64, m.FullLayout.NumFeatures()), make([]float64, m.Aux.Causes())
		out := make([]float64, layout.NumFeatures())
		if allocs := testing.AllocsPerRun(10, func() { m.auxScoresInto(rows[li][0], layout, fullVec, scores, out) }); allocs != 0 {
			t.Errorf("layout %d: auxScoresInto allocates %v times, want 0", li, allocs)
		}
	}
}

// A Model is safe for concurrent use: 8 goroutines diagnosing on one model
// reproduce the serial answers (run under -race).
func TestModelDiagnoseConcurrent(t *testing.T) {
	m := trainedModel(t)
	layouts, rows := pathCorpus(t, m)
	want := make([][]*Diagnosis, len(layouts))
	coarse := make([][][]float64, len(layouts))
	for li, layout := range layouts {
		for _, x := range rows[li] {
			want[li] = append(want[li], m.Diagnose(x, layout))
			coarse[li] = append(coarse[li], m.CoarsePredict(x, layout))
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for li, layout := range layouts {
				for i, x := range rows[li] {
					if !reflect.DeepEqual(want[li][i], m.Diagnose(x, layout)) {
						t.Errorf("layout %d row %d: concurrent Diagnose differs from serial", li, i)
						return
					}
					if !slices.Equal(coarse[li][i], m.CoarsePredict(x, layout)) {
						t.Errorf("layout %d row %d: concurrent CoarsePredict differs from serial", li, i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// paramBits is the bit pattern of every parameter's value and, where
// present, gradient.
func paramBits(net *nn.Network) []uint64 {
	var bits []uint64
	for _, p := range net.Params() {
		for _, mx := range []*mat.Matrix{p.Value, p.Grad} {
			if mx == nil {
				continue
			}
			for _, v := range mx.Data {
				bits = append(bits, math.Float64bits(v))
			}
		}
	}
	return bits
}

// One copy of the weights: a session's network aliases the model's
// parameter matrices, and no inference entry point writes a parameter of
// the model (the trained fixture still carries its gradients, so those are
// covered too).
func TestInferenceLeavesModelParamsUntouched(t *testing.T) {
	m := trainedModel(t)
	layouts, rows := pathCorpus(t, m)
	before := paramBits(m.Net)
	sess := m.NewSession()
	for i, p := range sess.Network().Params() {
		src := m.Net.Params()[i]
		if src.Grad == nil {
			t.Fatalf("param %d: the trained fixture should still hold its gradient", i)
		}
		if p.Value != src.Value || p.Grad != nil {
			t.Fatalf("param %d: session must alias the model's value matrix and hold no gradient", i)
		}
	}
	for li, layout := range layouts {
		sess.DiagnoseBatch(rows[li], layout)
		m.Diagnose(rows[li][0], layout)
		m.CoarsePredict(rows[li][0], layout)
	}
	if !slices.Equal(before, paramBits(m.Net)) {
		t.Fatal("inference wrote a parameter of the model")
	}
}

// NewSession copies no weights: on the Table I architecture it allocates
// under 5% of the parameter bytes (it used to allocate value and gradient
// copies, 200%).
func TestNewSessionCopiesNoWeights(t *testing.T) {
	m := &Model{Net: buildNet(DefaultConfig(), rand.New(rand.NewSource(1)))}
	total, _ := m.ParamCount()
	perSession := bytesPerRun(20, func() { m.NewSession() })
	if limit := 0.05 * 8 * float64(total); perSession > limit {
		t.Fatalf("NewSession allocates %.0f B, want under %.0f B (5%% of %d float64 parameters)", perSession, limit, total)
	}
}

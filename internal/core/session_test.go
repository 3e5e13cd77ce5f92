package core

import (
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

// There is one inference path: every entry point is a Session batch pass,
// and no layer mixes rows, so all of them agree to the bit.
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
		// Fused passes of the sizes a fragmented batch is served in (the
		// row kernel, and whole tiles with rows past them) and the full one.
		for _, group := range []int{1, 2, 3, 5, 7, len(want)} {
			if got := sess.DiagnoseBatch(rows[li][:group], layout); !reflect.DeepEqual(want[:group], got) {
				t.Fatalf("layout %d: Session.DiagnoseBatch of %d rows differs from Model.Diagnose", li, group)
			}
		}
		old := runtime.GOMAXPROCS(4)
		got := m.DiagnoseBatch(rows[li], layout, 4)
		runtime.GOMAXPROCS(old)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("layout %d: Model.DiagnoseBatch(…, 4) differs from Model.Diagnose", li)
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
		m.DiagnoseBatch(rows[li], layout, 2)
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
	const n = 20
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < n; i++ {
		m.NewSession()
	}
	runtime.ReadMemStats(&m1)
	perSession := float64(m1.TotalAlloc-m0.TotalAlloc) / n
	if limit := 0.05 * 8 * float64(total); perSession > limit {
		t.Fatalf("NewSession allocates %.0f B, want under %.0f B (5%% of %d float64 parameters)", perSession, limit, total)
	}
}

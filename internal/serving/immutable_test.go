package serving

import (
	"context"
	"math"
	"slices"
	"sync"
	"testing"

	"diagnet/internal/core"
)

// valueBits is the bit pattern of every weight of the given models.
func valueBits(models ...*core.Model) []uint64 {
	var bits []uint64
	for _, m := range models {
		for _, p := range m.Net.Params() {
			for _, v := range p.Value.Data {
				bits = append(bits, math.Float64bits(v))
			}
		}
	}
	return bits
}

// assertBorrowed fails unless the snapshot holds one session per worker and
// each of them serves the bundle's own models — general and every
// specialized one — through an inference view that reads the general
// model's parameter matrices and holds no gradient (one copy of the
// weights per process; core pins the same for the heads).
func assertBorrowed(t *testing.T, snap *snapshot, b *core.Bundle, workers int) {
	t.Helper()
	if len(snap.sessions) != workers {
		t.Fatalf("version %q: %d sessions, want one per worker (%d)", snap.version, len(snap.sessions), workers)
	}
	for _, sess := range snap.sessions {
		if sess.Model() != b.General {
			t.Fatal("session serves a general model that is not the bundle's")
		}
		for i, p := range sess.Network().Params() {
			if p.Value != b.General.Net.Params()[i].Value || p.Grad != nil {
				t.Fatalf("version %q param %d: session holds its own weights or a gradient", snap.version, i)
			}
		}
		for id, m := range b.Specialized {
			if got, svc := sess.ModelFor(id); got != m || svc != id {
				t.Fatalf("version %q service %d: session does not serve the bundle's specialized model", snap.version, id)
			}
		}
		if got, svc := sess.ModelFor(-12345); got != b.General || svc != -1 {
			t.Fatal("an unknown service must fall back to the general model")
		}
	}
}

// A promoted bundle's weights are never written: not by serving on every
// worker, by promoting a version that carries a specialized head, by
// Specialize or Retrain from the served model, nor by promoting and
// serving a retrain — and every worker's
// sessions borrow the bundle's parameter matrices instead of copying them.
func TestServingNeverWritesPromotedWeights(t *testing.T) {
	m, test := fixture(t)
	deg := test.Degraded()
	svc := deg.Samples[0].Service
	general := valueBits(m)

	e := newEngine(t, Config{BatchMax: 4, Workers: 3})
	reg := e.Registry()
	serve := func() {
		t.Helper()
		var wg sync.WaitGroup
		for g := 0; g < 6; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := g; i < 48; i += 6 {
					s := &deg.Samples[i%deg.Len()]
					if _, err := e.SubmitWait(context.Background(), &Request{ServiceID: s.Service, Layout: test.Layout, Features: s.Features}); err != nil {
						t.Error(err)
						return
					}
				}
			}()
		}
		wg.Wait()
		// The engine hands batches to whichever worker is free; this makes
		// "on all workers" certain.
		for _, sess := range reg.current().sessions {
			sess.DiagnoseRows(context.Background(), []core.Row{
				{Service: svc, Layout: test.Layout, Features: deg.Samples[0].Features},
				{Service: -1, Layout: test.Layout, Features: deg.Samples[1].Features},
			})
		}
	}
	serve()

	// Both training entry points start from the served model.
	spec := m.Specialize(test, svc).Model
	promoteHead(t, reg, "spec", svc, spec)
	specialized := valueBits(spec)
	retrained, err := m.Retrain(test, core.RetrainOptions{Epochs: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	serve()

	active, _, err := reg.ActiveBundle()
	if err != nil {
		t.Fatal(err)
	}
	if active.General != m || active.Specialized[svc] != spec {
		t.Fatal("active bundle does not hold the promoted models")
	}
	assertBorrowed(t, reg.current(), active, 3)

	// The retrain is promoted the way the continual plane promotes one.
	if err := reg.AddModel("cand", retrained.Model); err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote("cand"); err != nil {
		t.Fatal(err)
	}
	candidate := valueBits(retrained.Model)
	serve()
	assertBorrowed(t, reg.current(), core.NewBundle(retrained.Model), 3)
	if !slices.Equal(general, valueBits(m)) {
		t.Fatal("the promoted general model's weights were written")
	}
	if !slices.Equal(specialized, valueBits(spec)) {
		t.Fatal("the installed specialized model's weights were written")
	}
	if !slices.Equal(candidate, valueBits(retrained.Model)) {
		t.Fatal("the promoted candidate's weights were written")
	}
}

// Training from the model that is being served never writes it: Specialize
// and Retrain(HeadOnly) build a head over the promoted general model's own
// trunk matrices — the ones the workers are reading — and neither the
// fit's gradient accumulation nor its best-weights restore may touch a
// frozen parameter. Run under -race; the trunk's bits are compared too.
func TestTrainingFromTheServedModelWhileServing(t *testing.T) {
	m, test := fixture(t)
	deg := test.Degraded()
	svc := deg.Samples[0].Service
	before := valueBits(m)

	e := newEngine(t, Config{BatchMax: 4, Workers: 2})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; ; i += 4 {
				select {
				case <-stop:
					return
				default:
				}
				s := &deg.Samples[i%deg.Len()]
				if _, err := e.SubmitWait(context.Background(), &Request{ServiceID: s.Service, Layout: test.Layout, Features: s.Features}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	spec := m.Specialize(test, svc).Model
	head, err := m.Retrain(test, core.RetrainOptions{Epochs: 2, Seed: 5, HeadOnly: true})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(before, valueBits(m)) {
		t.Fatal("training from the served model wrote its weights")
	}
	for _, derived := range []*core.Model{spec, head.Model} {
		shared, own := 0, 0
		for i, p := range derived.Net.Params() {
			switch src := m.Net.Params()[i]; {
			case p.Value == src.Value && p.Frozen && p.Grad == nil:
				shared++
			case p.Value != src.Value && !p.Frozen:
				own++
			default:
				t.Fatalf("param %d: neither a frozen alias of the served model's matrix without a gradient nor a trainable copy", i)
			}
		}
		if shared != 4 || own == 0 {
			t.Fatalf("derived model shares %d parameters and owns %d, want the 4 trunk parameters shared and a head of its own", shared, own)
		}
	}
}

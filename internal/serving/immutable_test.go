package serving

import (
	"context"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

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

// assertBorrowed fails unless every session of the snapshot reads the
// bundle's own parameter matrices (one copy of the weights per process)
// and holds no gradient.
func assertBorrowed(t *testing.T, snap *snapshot, b *core.Bundle) {
	t.Helper()
	check := func(s *core.Session, m *core.Model) {
		t.Helper()
		if s.Model() != m {
			t.Fatal("session serves a model that is not the bundle's")
		}
		for i, p := range s.Network().Params() {
			if p.Value != m.Net.Params()[i].Value || p.Grad != nil {
				t.Fatalf("version %q service %d param %d: session holds its own weights or a gradient", snap.version, m.ServiceID, i)
			}
		}
	}
	for _, rep := range snap.replicas {
		check(rep.general, b.General)
		if len(rep.specialized) != len(b.Specialized) {
			t.Fatalf("replica has %d specialized sessions, bundle %d", len(rep.specialized), len(b.Specialized))
		}
		for id, s := range rep.specialized {
			check(s, b.Specialized[id])
		}
	}
}

// A promoted bundle's weights are never written: not by serving on every
// worker, by SetSpecialized, by Specialize or Retrain from the served
// model, nor by teeing through a shadow version — and every worker's
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
		for _, rep := range reg.current().replicas {
			s, _ := rep.sessionFor(svc)
			s.DiagnoseBatch([][]float64{deg.Samples[0].Features, deg.Samples[1].Features}, test.Layout)
		}
	}
	serve()

	// Both training entry points start from the served model.
	spec := m.Specialize(test, svc).Model
	if err := reg.SetSpecialized(svc, spec); err != nil {
		t.Fatal(err)
	}
	specialized := valueBits(spec)
	retrained, err := m.Retrain(test, core.RetrainOptions{Epochs: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	serve()

	if err := reg.AddModel("cand", retrained.Model); err != nil {
		t.Fatal(err)
	}
	if err := reg.InstallShadow("cand"); err != nil {
		t.Fatal(err)
	}
	candidate := valueBits(retrained.Model)
	var teed atomic.Int64
	e.SetShadowObserver(func(ShadowObservation) { teed.Add(1) })
	e.SetShadowTee(1)
	serve()
	for deadline := time.Now().Add(5 * time.Second); teed.Load() == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no request was teed through the shadow version")
		}
	}

	active, _, err := reg.ActiveBundle()
	if err != nil {
		t.Fatal(err)
	}
	if active.General != m || active.Specialized[svc] != spec {
		t.Fatal("active bundle does not hold the promoted models")
	}
	assertBorrowed(t, reg.current(), active)
	assertBorrowed(t, reg.shadow(), core.NewBundle(retrained.Model))
	if !slices.Equal(general, valueBits(m)) {
		t.Fatal("the promoted general model's weights were written")
	}
	if !slices.Equal(specialized, valueBits(spec)) {
		t.Fatal("the installed specialized model's weights were written")
	}
	if !slices.Equal(candidate, valueBits(retrained.Model)) {
		t.Fatal("the shadow candidate's weights were written")
	}
}

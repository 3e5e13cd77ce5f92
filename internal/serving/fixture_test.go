package serving

import (
	"context"
	"sync"
	"testing"

	"diagnet/internal/core"
	"diagnet/internal/dataset"
	"diagnet/internal/forest"
	"diagnet/internal/netsim"
)

var (
	fixtureOnce  sync.Once
	fixtureModel *core.Model
	fixtureTest  *dataset.Dataset
)

// fixture trains one tiny model for the whole test package (same shape as
// the analysis package's fixture).
func fixture(t testing.TB) (*core.Model, *dataset.Dataset) {
	t.Helper()
	fixtureOnce.Do(func() {
		w := netsim.NewWorld(netsim.Config{Seed: 1})
		d := dataset.Generate(dataset.GenConfig{
			World:          w,
			NominalSamples: 300,
			FaultSamples:   800,
			Seed:           21,
		})
		train, test := d.Split(0.8, netsim.HiddenLandmarks(), 23)
		cfg := core.DefaultConfig()
		cfg.Filters = 6
		cfg.Hidden = []int{24, 12}
		cfg.Epochs = 6
		cfg.Forest = forest.Config{Trees: 10, Tree: forest.TreeConfig{MaxDepth: 6}}
		known := []int{netsim.BEAU, netsim.AMST, netsim.SING, netsim.LOND, netsim.FRNK, netsim.TOKY, netsim.SYDN}
		fixtureModel = core.TrainGeneral(train, known, cfg).Model
		fixtureTest = test
	})
	return fixtureModel, fixtureTest
}

// sampleRequest returns a degraded test sample as an engine request.
func sampleRequest(t testing.TB) *Request {
	t.Helper()
	_, test := fixture(t)
	deg := test.Degraded()
	if deg.Len() == 0 {
		t.Fatal("no degraded samples")
	}
	s := &deg.Samples[0]
	return &Request{
		ServiceID: s.Service,
		Layout:    test.Layout,
		Features:  s.Features,
	}
}

// promoteHead registers version as the fixture's general model with head
// as service svc's specialized model in one bundle, and promotes it.
func promoteHead(t testing.TB, reg *Registry, version string, svc int, head *core.Model) {
	t.Helper()
	m, _ := fixture(t)
	b := core.NewBundle(m)
	b.Attach(svc, head)
	if err := reg.Add(version, b); err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote(version); err != nil {
		t.Fatal(err)
	}
}

// newEngine starts an engine with the fixture model promoted as version
// "boot" and registers a drain on test cleanup.
func newEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	e := allocEngine(t, cfg)
	e.start()
	return e
}

// allocEngine is newEngine before start: the test queues its backlog first
// (queueItem) and calls e.start() itself, so what the first worker finds in
// the queue is exact rather than a race against the submitters.
func allocEngine(t testing.TB, cfg Config) *Engine {
	t.Helper()
	m, _ := fixture(t)
	e := alloc(cfg)
	if err := e.Registry().AddModel("boot", m); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Promote("boot"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), DrainTimeout)
		defer cancel()
		if err := e.Close(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return e
}

// queueItem puts one submission straight into the queue, exactly what
// enqueue leaves there, and returns it so the test can read its outcome.
func queueItem(e *Engine, ctx context.Context, req *Request) *item {
	it := &item{ctx: ctx, req: req, done: make(chan outcome, 1)}
	e.queue <- it
	return it
}

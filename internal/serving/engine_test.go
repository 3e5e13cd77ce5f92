package serving

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"diagnet/internal/probe"
)

// TestEngineMatchesDirect is the correctness anchor for batching: a
// diagnosis served through the queue/batch/worker pipeline must agree with
// a direct Model.Diagnose call on the same sample.
func TestEngineMatchesDirect(t *testing.T) {
	m, _ := fixture(t)
	e := newEngine(t, Config{})
	req := sampleRequest(t)

	want := m.Diagnose(req.Features, req.Layout)
	got, err := e.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got.Version != "boot" || got.ModelService != -1 {
		t.Fatalf("provenance %q/%d, want boot/-1", got.Version, got.ModelService)
	}
	if got.Diagnosis.Family != want.Family {
		t.Fatalf("family %v vs %v", got.Diagnosis.Family, want.Family)
	}
	for j := range want.Final {
		if d := math.Abs(got.Diagnosis.Final[j] - want.Final[j]); d > 1e-9 {
			t.Fatalf("final[%d] diverges by %g", j, d)
		}
	}
}

// TestEngineCoalescesConcurrentSubmissions drives many concurrent
// submissions through a small engine and checks every caller gets its own
// correct answer back — i.e. batching never crosses wires between requests.
func TestEngineCoalescesConcurrentSubmissions(t *testing.T) {
	m, test := fixture(t)
	e := newEngine(t, Config{BatchMax: 8, Workers: 2})

	deg := test.Degraded()
	n := deg.Len()
	if n > 24 {
		n = 24
	}
	want := make([]int, n)
	for i := 0; i < n; i++ {
		want[i] = m.Diagnose(deg.Samples[i].Features, test.Layout).Ranked()[0]
	}

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for round := 0; round < 4; round++ {
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				res, err := e.SubmitWait(context.Background(), &Request{
					ServiceID: deg.Samples[i].Service,
					Layout:    test.Layout,
					Features:  deg.Samples[i].Features,
				})
				if err != nil {
					errs <- err
					return
				}
				if got := res.Diagnosis.Ranked()[0]; got != want[i] {
					errs <- errMismatch{i, want[i], got}
				}
			}(i)
		}
		wg.Wait()
	}
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if s := e.Stats(); s.Served < int64(4*n) {
		t.Fatalf("served %d, want >= %d", s.Served, 4*n)
	}
}

type errMismatch struct{ i, want, got int }

func (e errMismatch) Error() string {
	return fmt.Sprintf("request %d: top cause %d, want %d", e.i, e.got, e.want)
}

// TestEngineNoModel: submissions before any promotion fail fast with
// ErrNoModel instead of queueing forever.
func TestEngineNoModel(t *testing.T) {
	e := New(Config{})
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), DrainTimeout)
		defer cancel()
		e.Close(ctx)
	})
	if _, err := e.Submit(context.Background(), sampleRequest(t)); err != ErrNoModel {
		t.Fatalf("err = %v, want ErrNoModel", err)
	}
}

// TestEngineClosedRejectsSubmissions: after Close, submissions fail with
// ErrClosed and Close stays idempotent.
func TestEngineClosedRejectsSubmissions(t *testing.T) {
	m, _ := fixture(t)
	e := New(Config{})
	if err := e.Registry().AddModel("boot", m); err != nil {
		t.Fatal(err)
	}
	if err := e.Registry().Promote("boot"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), DrainTimeout)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(context.Background(), sampleRequest(t)); err != ErrClosed {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	if err := e.Close(ctx); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestPassRowsRecordsWhatAPassFused: serving.batch.size is what a worker
// cut from the backlog and serving.pass.rows is what one trunk pass fused of
// it — everything, whatever services and layouts the batch mixes, as long
// as the models share the trunk. Six queued requests over two layouts and
// two services (one served by a specialized head, one by the general) are
// one batch and one pass of six rows, each answered by its own model.
func TestPassRowsRecordsWhatAPassFused(t *testing.T) {
	m, test := fixture(t)
	e := allocEngine(t, Config{BatchMax: 6, Workers: 1})
	req := sampleRequest(t)
	promoteHead(t, e.Registry(), "spec", req.ServiceID, m.Specialize(test, req.ServiceID).Model)
	sub := probe.NewLayout(test.Layout.Landmarks[:3])
	narrow := &Request{ServiceID: req.ServiceID, Layout: sub, Features: test.Layout.Project(req.Features, sub)}
	other := &Request{ServiceID: req.ServiceID + 1000, Layout: sub, Features: narrow.Features}

	served, batches := e.Stats().Served, mBatchSize.Count()
	passes, rows := mPassRows.Count(), mPassRows.Sum()
	reqs := []*Request{req, narrow, other, req, narrow, other}
	var items []*item
	for _, r := range reqs {
		items = append(items, queueItem(e, context.Background(), r))
	}
	e.start()
	for i, it := range items {
		out := <-it.done
		if out.err != nil {
			t.Fatal(out.err)
		}
		want := reqs[i].ServiceID
		if reqs[i] == other {
			want = -1
		}
		if out.res.ModelService != want {
			t.Fatalf("request %d (service %d) answered by model %d, want %d", i, reqs[i].ServiceID, out.res.ModelService, want)
		}
	}
	if d := mBatchSize.Count() - batches; d != 1 {
		t.Fatalf("the six requests were cut into %d batches, want 1", d)
	}
	if d := mPassRows.Count() - passes; d != 1 {
		t.Fatalf("a batch over two layouts and two services recorded %d passes, want 1", d)
	}
	if got, want := mPassRows.Sum()-rows, float64(e.Stats().Served-served); got != want || want != 6 {
		t.Fatalf("pass rows sum to %v, served %v, want both 6", got, want)
	}
}

// TestBacklogBeyondBatchMaxIsCutIntoFullBatches: a worker takes what is
// queued up to BatchMax and leaves the rest for the next cut, so ten queued
// requests at BatchMax 4 are batches of 4, 4 and 2 — ⌈N/BatchMax⌉, nothing
// lost, nothing served twice.
func TestBacklogBeyondBatchMaxIsCutIntoFullBatches(t *testing.T) {
	e := allocEngine(t, Config{BatchMax: 4, QueueDepth: 16, Workers: 1})
	req := sampleRequest(t)
	served, batches, rows := e.Stats().Served, mBatchSize.Count(), mBatchSize.Sum()
	var items []*item
	for i := 0; i < 10; i++ {
		items = append(items, queueItem(e, context.Background(), req))
	}
	e.start()
	for i, it := range items {
		if out := <-it.done; out.err != nil || out.res == nil {
			t.Fatalf("item %d: %v", i, out.err)
		}
	}
	if n, sum := mBatchSize.Count()-batches, mBatchSize.Sum()-rows; n != 3 || sum != 10 {
		t.Fatalf("ten queued requests were cut into %d batches holding %v, want 3 holding 10", n, sum)
	}
	if d := e.Stats().Served - served; d != 10 {
		t.Fatalf("served %d of 10", d)
	}
}

// TestLoneSubmitIsABatchOfOne: on an idle engine nothing holds a request
// back to wait for company — each sequential Submit is cut as its own
// batch the moment a worker sees it. Pinned on serving.batch.size, not on
// wall time.
func TestLoneSubmitIsABatchOfOne(t *testing.T) {
	e := newEngine(t, Config{BatchMax: 32, Workers: 2})
	req := sampleRequest(t)
	batches, rows := mBatchSize.Count(), mBatchSize.Sum()
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := e.Submit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	if c, sum := mBatchSize.Count()-batches, mBatchSize.Sum()-rows; c != n || sum != n {
		t.Fatalf("%d sequential submissions were cut into %d batches holding %v, want %d batches of 1", n, c, sum, n)
	}
}

// TestSubmitAllQueuesTheBacklogBeforeWaiting pins the bulk call: answers
// come back in request order (each sample is told apart by its own top
// cause), a backlog far deeper than the queue squeezes through it, and a
// caller that gives up mid-enqueue leaves nothing behind — the rest is
// never queued and what was queued is shed as canceled, not served.
func TestSubmitAllQueuesTheBacklogBeforeWaiting(t *testing.T) {
	m, test := fixture(t)
	deg := test.Degraded()
	reqs := make([]*Request, 1024)
	want := make([]int, len(reqs))
	for i := range reqs {
		s := &deg.Samples[i%deg.Len()]
		reqs[i] = &Request{ServiceID: s.Service, Layout: test.Layout, Features: s.Features}
		if i < deg.Len() {
			want[i] = m.Diagnose(s.Features, test.Layout).Ranked()[0]
		} else {
			want[i] = want[i%deg.Len()]
		}
	}

	e := newEngine(t, Config{BatchMax: 4, QueueDepth: 8, Workers: 2})
	results, errs := e.SubmitAll(context.Background(), reqs)
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if got := results[i].Diagnosis.Ranked()[0]; got != want[i] {
			t.Fatalf("request %d answered with top cause %d, want %d: results are out of request order", i, got, want[i])
		}
	}
	if s := e.Stats(); s.ShedFull != 0 {
		t.Fatalf("blocking admission shed %d requests", s.ShedFull)
	}

	// The caller's context dies while SubmitAll is blocked on the full
	// queue of an engine nobody serves yet.
	stalled := allocEngine(t, Config{BatchMax: 4, QueueDepth: 8, Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		for len(stalled.queue) < 8 {
			runtime.Gosched()
		}
		cancel()
	}()
	results, errs = stalled.SubmitAll(ctx, reqs[:32])
	for i := range errs {
		if !errors.Is(errs[i], context.Canceled) || results[i] != nil {
			t.Fatalf("request %d after the caller left: result %v, err %v, want context.Canceled", i, results[i], errs[i])
		}
	}
	stalled.start()
	ctxDrain, stop := context.WithTimeout(context.Background(), DrainTimeout)
	defer stop()
	if err := stalled.Close(ctxDrain); err != nil {
		t.Fatal(err)
	}
	if s := stalled.Stats(); s.ShedCanceled != 8 || s.Served != 0 {
		t.Fatalf("after the caller left: %d shed as canceled, %d served, want the 8 queued shed and none served", s.ShedCanceled, s.Served)
	}
}

package serving

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"

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
	e := newEngine(t, Config{BatchMax: 8, BatchWait: 2 * time.Millisecond, Workers: 2})

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

// TestPassRowsRecordsWhatAPassFused: serving.batch.size is what the
// dispatcher cut; only requests of one (service, layout) fuse, and
// serving.pass.rows is what each pass was handed. One batch of six requests
// under two layouts is two passes, and every served request is in one.
func TestPassRowsRecordsWhatAPassFused(t *testing.T) {
	_, test := fixture(t)
	// As in TestCanceledHedgeLoserFreesBatchSlot, the huge BatchWait means
	// the batch flushes because all six slots filled: it is one batch.
	e := newEngine(t, Config{BatchMax: 6, BatchWait: 30 * time.Second, Workers: 1})
	req := sampleRequest(t)
	sub := probe.NewLayout(test.Layout.Landmarks[:3])
	narrow := &Request{ServiceID: req.ServiceID, Layout: sub, Features: test.Layout.Project(req.Features, sub)}

	served, batches := e.Stats().Served, mBatchSize.Count()
	passes, rows := mPassRows.Count(), mPassRows.Sum()
	var items []*item
	for _, r := range []*Request{req, narrow, req, req, narrow, req} {
		it := &item{ctx: context.Background(), req: r, done: make(chan outcome, 1)}
		items = append(items, it)
		e.queue <- it
	}
	for _, it := range items {
		if out := <-it.done; out.err != nil {
			t.Fatal(out.err)
		}
	}
	if d := mBatchSize.Count() - batches; d != 1 {
		t.Fatalf("the six requests were cut into %d batches, want 1", d)
	}
	if d := mPassRows.Count() - passes; d != 2 {
		t.Fatalf("a batch under two layouts recorded %d passes, want 2", d)
	}
	if got, want := mPassRows.Sum()-rows, float64(e.Stats().Served-served); got != want || want != 6 {
		t.Fatalf("pass rows sum to %v, served %v, want both 6", got, want)
	}
}

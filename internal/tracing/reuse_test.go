package tracing

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"sync"
	"testing"

	"diagnet/internal/telemetry"
)

// replicaStages are the stages of replicaTrace, in a registry of their own.
type replicaStages struct{ submit, batch, session, normalize, gradient, forest *Stage }

func newReplicaStages() *replicaStages {
	reg := telemetry.New()
	return &replicaStages{
		submit: NewStage(reg, "serving.submit"), batch: NewStage(reg, "serving.batch"),
		session: NewStage(reg, "core.session_diagnose"), normalize: NewStage(reg, "probe.normalize"),
		gradient: NewStage(reg, "nn.input_gradient"), forest: NewStage(reg, "forest.scores"),
	}
}

// replicaTrace records one trace shaped like a replica's answer to a
// one-sample diagnosis: the HTTP root with three attributes, then three
// stage runs — the submission, its micro-batch (linked to the submission
// both ways) and the session pass — and the pass's three marks. It returns
// the root, ended.
func replicaTrace(tr *Tracer, st *replicaStages) *Span {
	ctx, root := tr.StartSpan(context.Background(), "http.diagnose")
	root.SetAttr("http.method", "POST")
	root.SetAttr("http.path", "/v1/diagnose")
	submit := st.submit.Start(ctx)
	batch := st.batch.Start(ContextWithSpan(ctx, submit.Span()))
	batch.Span().Link(submit.Span().Context())
	submit.Span().Link(batch.Span().Context())
	session := st.session.Start(ContextWithSpan(ctx, batch.Span()))
	session.Mark(st.normalize)
	session.Mark(st.gradient)
	session.Mark(st.forest)
	session.End()
	batch.End()
	submit.End()
	root.SetAttr("http.status", 200)
	root.End()
	return root
}

// traceJSON is the JSON of the kept trace id.
func traceJSON(t testing.TB, tr *Tracer, id string) []byte {
	rec, ok := tr.Trace(id)
	if !ok {
		t.Fatalf("trace %s not kept", id)
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestEndedSpanIsSealed: SetAttr, SetError and Link on an ended span write
// nothing — not while a reader encodes the trace, and not once the
// trace's storage has been reused — so the recorded trace stays as it was
// when its spans ended. Meaningful under -race.
func TestEndedSpanIsSealed(t *testing.T) {
	tr := newTestTracer(Config{Capacity: 2, SlowCapacity: 1})
	ctx, root := tr.StartSpan(context.Background(), "root")
	_, child := tr.StartSpan(ctx, "child")
	child.SetAttr("k", "v")
	child.End()
	// The trace still runs, but the child has ended: as a batch links a
	// member whose submitter already ended its span.
	other := SpanContext{TraceID: root.TraceID(), SpanID: root.Context().SpanID}
	child.SetAttr("k", "late")
	child.SetError(errors.New("late"))
	child.Link(other)
	_, straggler := tr.StartSpan(ctx, "straggler") // outlives its trace
	root.End()
	id := root.TraceID()
	rec, _ := tr.Trace(id)
	if c := rec.Spans[1]; c.Name != "child" || len(c.Attrs) != 1 || c.Attrs["k"] != "v" || c.Error != "" || c.Links != nil || rec.Error {
		t.Fatalf("the ended child changed before its root ended: %+v", c)
	}
	want := traceJSON(t, tr, id)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := traceJSON(t, tr, id); !bytes.Equal(got, want) {
				t.Errorf("an ended span changed its trace:\n got %s\nwant %s", got, want)
				return
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		for _, s := range []*Span{root, child} {
			s.SetAttr("k", i)
			s.SetAttr("late", true)
			s.SetError(errors.New("late"))
			s.Link(other)
			s.End()
		}
	}
	close(stop)
	wg.Wait()

	// Reuse the storage: the ring evicts the trace, later traces take its
	// arrays, and neither the ended spans nor the one that outlived the
	// trace write into them.
	for i := 0; i < 8; i++ {
		_, s := tr.StartSpan(context.Background(), "next")
		s.End()
	}
	_, live := tr.StartSpan(context.Background(), "live")
	for _, s := range []*Span{root, child, straggler} {
		s.SetAttr("k", "stale")
		s.SetError(errors.New("stale"))
		s.Link(other)
		s.End()
	}
	live.End()
	rec, ok := tr.Trace(live.TraceID())
	if !ok || len(rec.Spans) != 1 || rec.Spans[0].Attrs != nil || rec.Spans[0].Links != nil || rec.Error {
		t.Fatalf("a stale span wrote into reused storage: %+v", rec)
	}
}

// TestKeptTraceOutlivesReuse: a Trace result shares no memory with the
// recorder. Its JSON stays byte-equal while twice the rings' capacity of
// traces is recorded concurrently — enough to evict it and reuse all of
// the storage. Meaningful under -race.
func TestKeptTraceOutlivesReuse(t *testing.T) {
	cfg := Config{Capacity: 8, SlowCapacity: 2}
	tr := newTestTracer(cfg)
	st := newReplicaStages()
	root := replicaTrace(tr, st)
	rec, ok := tr.Trace(root.TraceID())
	if !ok {
		t.Fatal("trace not kept")
	}
	want, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}

	n := 2 * (cfg.Capacity + cfg.SlowCapacity)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/4; i++ {
				replicaTrace(tr, st)
			}
		}()
	}
	recorded := make(chan struct{})
	go func() { wg.Wait(); close(recorded) }()
	for running := true; running; {
		select {
		case <-recorded:
			running = false
		default:
		}
		got, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			<-recorded
			t.Fatalf("a kept trace changed while storage was reused:\n got %s\nwant %s", got, want)
		}
	}
	if _, ok := tr.Trace(root.TraceID()); ok {
		t.Fatal("the first trace survived twice the rings' capacity")
	}
}

// replicaTraceAllocs bounds what recording one replicaTrace allocates
// once the rings are full: the root's span, context and hex trace ID, the
// three stage runs' spans, and the two contexts that carry the submission
// and the batch span to their callees.
const replicaTraceAllocs = 8

// TestTraceAllocsOnceRingFull guards the reuse: once the rings are full,
// a trace writes into storage an evicted trace left, so recording one
// allocates only the handful of per-span objects above — no span arrays,
// attribute maps, link slices or per-span ID strings.
func TestTraceAllocsOnceRingFull(t *testing.T) {
	telemetry.SetEnabled(false) // the stages' histograms are telemetry's cost
	defer telemetry.SetEnabled(true)
	tr := newTestTracer(Config{Capacity: 4, SlowCapacity: 1})
	st := newReplicaStages()
	for i := 0; i < 8; i++ {
		replicaTrace(tr, st)
	}
	if allocs := testing.AllocsPerRun(200, func() { replicaTrace(tr, st) }); allocs > replicaTraceAllocs {
		t.Fatalf("a replica-shaped trace allocates %v times once the ring is full, want ≤ %d", allocs, replicaTraceAllocs)
	}
}

// BenchmarkReplicaTrace prices recording one replicaTrace into full rings.
func BenchmarkReplicaTrace(b *testing.B) {
	tr := NewTracer(Config{})
	st := newReplicaStages()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		replicaTrace(tr, st)
	}
}

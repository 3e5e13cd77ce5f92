package tracing

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"diagnet/internal/telemetry"
)

// TestConcurrentSpanRecording hammers one tracer from many goroutines —
// concurrent children of a shared root, concurrent independent roots,
// concurrent reads — and is meaningful under -race (the CI test job runs
// with it): the recorder claims lock-cheap, not lock-free, and this is
// the proof it is actually safe.
func TestConcurrentSpanRecording(t *testing.T) {
	tr := newTestTracer(Config{Capacity: 32, SlowCapacity: 8, MaxSpans: 64})

	rootCtx, root := tr.StartSpan(context.Background(), "shared-root")
	retro := NewStage(telemetry.New(), "retro")
	var wg sync.WaitGroup
	for g := 0; g < 32; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				// children of the shared root, racing into one traceBuf
				cctx, c := tr.StartSpan(rootCtx, fmt.Sprintf("child-%d", g))
				c.SetAttr("iter", i)
				_, gc := tr.StartSpan(cctx, "leaf")
				gc.End()
				if i%5 == 0 {
					c.SetError(errors.New("synthetic"))
				}
				c.End()

				// independent root traces, racing into the rings
				_, r := tr.StartSpan(context.Background(), "solo")
				rc := retro.Start(ContextWithSpan(context.Background(), r))
				rc.Mark(retro) // a retroactive lap span
				rc.End()
				r.End()

				// concurrent reads of both rings
				tr.Traces()
				tr.Trace(root.TraceID())
			}
		}(g)
	}
	wg.Wait()
	root.End()

	rec, ok := tr.Trace(root.TraceID())
	if !ok {
		t.Fatal("shared trace not kept")
	}
	if len(rec.Spans) == 0 || len(rec.Spans) > 64+1 { // MaxSpans children + the root
		t.Fatalf("span bound violated: %d", len(rec.Spans))
	}
	if got := tr.Traces(); len(got) > 32+8 {
		t.Fatalf("ring bound violated: %d traces listed", len(got))
	}
}

func TestMergedGetForTwoLocalRoots(t *testing.T) {
	// One process hosting both tiers (examples, tests): the agent's root
	// and the server's extracted local root share a trace ID and must
	// merge on retrieval.
	tr := newTestTracer(Config{})
	_, agent := tr.StartSpan(context.Background(), "agent.round")
	id := agent.TraceID()

	sctx := context.WithValue(context.Background(), remoteKey{},
		SpanContext{TraceID: id, SpanID: agent.Context().SpanID, Sampled: true})
	_, server := tr.StartSpan(sctx, "http.diagnose")
	server.End()
	agent.End()

	rec, ok := tr.Trace(id)
	if !ok {
		t.Fatal("merged trace not found")
	}
	if len(rec.Spans) != 2 {
		t.Fatalf("want both tiers' spans, got %d", len(rec.Spans))
	}
	tree := rec.Tree()
	if len(tree) != 1 {
		t.Fatalf("server span should nest under the agent root, got %d roots", len(tree))
	}
}

func TestEvictionUnindexes(t *testing.T) {
	tr := newTestTracer(Config{Capacity: 1, SlowCapacity: 1})
	_, a := tr.StartSpan(context.Background(), "a")
	aID := a.TraceID()
	a.End()
	_, b := tr.StartSpan(context.Background(), "b")
	bID := b.TraceID()
	b.End()
	if _, ok := tr.Trace(aID); ok {
		t.Fatal("evicted trace still retrievable")
	}
	if _, ok := tr.Trace(bID); !ok {
		t.Fatal("live trace lost")
	}
}

func TestConfigureResetsRings(t *testing.T) {
	tr := newTestTracer(Config{})
	_, s := tr.StartSpan(context.Background(), "old")
	s.End()
	tr.Configure(Config{Capacity: 8})
	if got := len(tr.Traces()); got != 0 {
		t.Fatalf("Configure kept %d stale traces", got)
	}
}

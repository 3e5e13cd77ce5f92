package soak

import (
	"testing"
	"time"

	"diagnet/internal/leakcheck"
)

func TestMain(m *testing.M) {
	// The soak harness is itself lifecycle code; it must not leak either.
	leakcheck.VerifyTestMain(m)
}

// TestBuildScheduleDeterministic pins the replayability contract: the
// schedule is a pure function of (seed, duration, replicas, step).
func TestBuildScheduleDeterministic(t *testing.T) {
	a := BuildSchedule(42, 30*time.Second, 3, 250*time.Millisecond)
	b := BuildSchedule(42, 30*time.Second, 3, 250*time.Millisecond)
	if len(a) == 0 {
		t.Fatal("empty schedule")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := BuildSchedule(43, 30*time.Second, 3, 250*time.Millisecond)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestBuildScheduleInvariants checks the structural rules every schedule
// must satisfy: time-ordered, replica 0 never killed, no kill of a
// replica the schedule already left down, every kill paired with a
// restart at a later offset.
func TestBuildScheduleInvariants(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		events := BuildSchedule(seed, time.Minute, 3, 250*time.Millisecond)
		down := map[int]bool{}
		var prev time.Duration
		for i, ev := range events {
			if ev.At < prev {
				t.Fatalf("seed %d: event %d out of order", seed, i)
			}
			prev = ev.At
			switch ev.Kind {
			case EvKill:
				if ev.Target == 0 {
					t.Fatalf("seed %d: schedule kills replica 0", seed)
				}
				if down[ev.Target] {
					t.Fatalf("seed %d: kill of already-down replica %d at %s", seed, ev.Target, ev.At)
				}
				down[ev.Target] = true
			case EvRestart:
				if !down[ev.Target] {
					t.Fatalf("seed %d: restart of up replica %d at %s", seed, ev.Target, ev.At)
				}
				down[ev.Target] = false
			}
		}
		for idx, d := range down {
			if d {
				t.Fatalf("seed %d: replica %d left down at end of schedule", seed, idx)
			}
		}
	}
}

// TestFloorGrowthIgnoresAKillDip pins the goroutine-floor verdict across
// a kill→restart: the killed replica's goroutines are gone while it is
// down, and a floor sampled in that dip made the last third's ordinary
// count read as growth. Ticks taken while the fleet is not whole are not
// samples; a genuine leak still raises the floor.
func TestFloorGrowthIgnoresAKillDip(t *testing.T) {
	type tick struct {
		whole      bool
		goroutines int
	}
	run := func(last int) []tick {
		var ticks []tick
		for i := 0; i < 15; i++ {
			switch {
			case i == 6 || i == 7: // middle third: one replica killed, then restarted
				ticks = append(ticks, tick{false, 85})
			case i >= 10:
				ticks = append(ticks, tick{true, last})
			default:
				ticks = append(ticks, tick{true, 100})
			}
		}
		return ticks
	}
	for _, tc := range []struct {
		name string
		last int
		grew bool
	}{
		{"steady after restart", 102, false},
		{"leak", 120, true},
	} {
		var sum Summary
		for _, tk := range run(tc.last) {
			sum.sample(tk.whole, tk.goroutines, 10)
		}
		if _, grew := floorGrowth(sum.GoroutineSamples, 5); grew != tc.grew {
			t.Errorf("%s: floorGrowth over %v reports growth %v, want %v", tc.name, sum.GoroutineSamples, grew, tc.grew)
		}
	}
}

// TestSoakShortRun boots the full fleet and runs a brief chaos window.
// CI's 60s soak lives in the workflow; this keeps a smoke-sized version
// in `go test` so harness regressions surface everywhere.
func TestSoakShortRun(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack soak skipped in -short mode")
	}
	sum, err := Run(Config{
		Seed:          1,
		Duration:      4 * time.Second,
		Replicas:      3,
		ClientWorkers: 2,
		EventStep:     200 * time.Millisecond,
		StateRoot:     t.TempDir(),
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatalf("soak failed: %v\nleak report:\n%s", err, sum.LeakReport)
	}
	if len(sum.Violations) != 0 {
		t.Fatalf("violations: %v", sum.Violations)
	}
	if sum.Requests["ok"] == 0 {
		t.Fatal("no traffic reached the fleet")
	}
	if sum.FederatedCounters == 0 {
		t.Fatal("federation exactness checked nothing")
	}
}

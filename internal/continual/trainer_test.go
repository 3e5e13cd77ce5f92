package continual

import (
	"context"
	"sync/atomic"
	"testing"
	"time"
)

func TestTrainerProducesCandidate(t *testing.T) {
	base, d := fixture(t)
	store := storeFromDataset(t, d, true, 64)
	defer store.Close()
	train, holdout := store.Export(base.FullLayout, 0.2, 3)

	tr, err := NewTrainer(TrainerConfig{Epochs: 2, Seed: 3, SpecializeMin: -1})
	if err != nil {
		t.Fatal(err)
	}
	out, err := tr.Train(context.Background(), base, train, holdout)
	if err != nil {
		t.Fatal(err)
	}
	if out.Bundle == nil || out.Bundle.General == nil {
		t.Fatal("no candidate bundle")
	}
	if out.Bundle.General == base {
		t.Fatal("candidate is the base model itself")
	}
	if out.Epochs != 2 || out.Resumed {
		t.Fatalf("epochs %d resumed %v", out.Epochs, out.Resumed)
	}
	if out.HoldoutSamples == 0 {
		t.Fatal("labeled holdout was not evaluated")
	}
	// Warm-started on the same distribution: the candidate must stay a
	// competent classifier (not a random re-init).
	if out.HoldoutCandidate < out.HoldoutIncumbent-0.2 {
		t.Fatalf("candidate accuracy %.3f collapsed vs incumbent %.3f", out.HoldoutCandidate, out.HoldoutIncumbent)
	}
}

func TestTrainerSpecializesEligibleServices(t *testing.T) {
	base, d := fixture(t)
	store := storeFromDataset(t, d, true, 64)
	defer store.Close()
	train, _ := store.Export(base.FullLayout, 0, 3)

	tr, err := NewTrainer(TrainerConfig{Epochs: 1, Seed: 3, SpecializeMin: 20})
	if err != nil {
		t.Fatal(err)
	}
	out, err := tr.Train(context.Background(), base, train, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Specialized) == 0 {
		t.Fatal("no service met the specialization threshold")
	}
	for _, svc := range out.Specialized {
		spec := out.Bundle.Specialized[svc]
		if spec == nil || spec.ServiceID != svc {
			t.Fatalf("service %d missing its specialized head", svc)
		}
		// Paper §IV-F: the shared extractor is frozen during
		// specialization, so LandPool + first Dense stay bit-identical.
		bp, sp := out.Bundle.General.Net.Params(), spec.Net.Params()
		for i := 0; i < 4; i++ {
			for j := range bp[i].Value.Data {
				if bp[i].Value.Data[j] != sp[i].Value.Data[j] {
					t.Fatalf("shared param %d moved during specialization", i)
				}
			}
		}
	}
}

func TestTrainerCheckpointResume(t *testing.T) {
	base, d := fixture(t)
	store := storeFromDataset(t, d, true, 64)
	defer store.Close()
	train, _ := store.Export(base.FullLayout, 0, 3)
	dir := t.TempDir()

	// Kill the first run after one epoch: Load is polled before every
	// epoch, so cancel on its second call.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	tr, err := NewTrainer(TrainerConfig{
		Epochs: 3, Seed: 3, SpecializeMin: -1, CheckpointDir: dir,
		Load: func() float64 {
			if calls.Add(1) >= 2 {
				cancel()
			}
			return 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Train(ctx, base, train, nil); err == nil {
		t.Fatal("canceled retrain reported success")
	}

	// A fresh trainer over the same inputs resumes from the checkpoint.
	tr2, err := NewTrainer(TrainerConfig{Epochs: 3, Seed: 3, SpecializeMin: -1, CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	out, err := tr2.Train(context.Background(), base, train, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Resumed {
		t.Fatal("retrain did not resume from the checkpoint")
	}
	if out.Epochs >= 3 {
		t.Fatalf("resume re-ran all %d epochs", out.Epochs)
	}

	// The finished retrain invalidates the checkpoint: the next run
	// starts fresh.
	out2, err := tr2.Train(context.Background(), base, train, nil)
	if err != nil {
		t.Fatal(err)
	}
	if out2.Resumed {
		t.Fatal("stale checkpoint accepted after a finished retrain")
	}
}

func TestTrainerPausesUnderLoad(t *testing.T) {
	base, d := fixture(t)
	store := storeFromDataset(t, d, true, 64)
	defer store.Close()
	train, _ := store.Export(base.FullLayout, 0, 3)

	var load atomic.Uint64 // 1 = overloaded
	load.Store(1)
	tr, err := NewTrainer(TrainerConfig{
		Epochs: 1, Seed: 3, SpecializeMin: -1,
		Load: func() float64 {
			if load.Load() == 1 {
				return 1
			}
			return 0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := tr.Train(context.Background(), base, train, nil)
		done <- err
	}()
	time.Sleep(30 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("trainer ran while serving was overloaded")
	default:
	}
	load.Store(0)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 30*time.Millisecond {
		t.Fatal("trainer did not wait for capacity")
	}
}

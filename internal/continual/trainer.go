package continual

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"diagnet/internal/core"
	"diagnet/internal/dataset"
	"diagnet/internal/durable"
)

// A trainer pauses between epochs while serving pressure is above
// pauseAbove, re-checking it every pausePoll.
const (
	pauseAbove = 0.8
	pausePoll  = 50 * time.Millisecond
)

// TrainerConfig configures the background retraining worker.
type TrainerConfig struct {
	// Epochs is the retraining epoch budget (default 4).
	Epochs int
	// BatchSize overrides the model config's batch size (0 keeps it).
	BatchSize int
	// Seed drives shuffling and the landmark-dropout views (default 1).
	Seed int64
	// SpecializeMin is the minimum per-service sample count before a
	// specialized head is derived for that service (default 32; negative
	// disables specialization).
	SpecializeMin int
	// Load reports serving pressure in [0, 1] (queue depth / capacity).
	// The trainer pauses between epochs while Load() > pauseAbove, so a
	// retrain never competes with an overloaded serving plane. Nil never
	// pauses.
	Load func() float64
	// CheckpointDir, when set, persists an epoch checkpoint through
	// internal/durable after every epoch: a killed retrain resumes from
	// its last finished epoch instead of epoch zero.
	CheckpointDir string
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

func (c TrainerConfig) withDefaults() TrainerConfig {
	if c.Epochs <= 0 {
		c.Epochs = 4
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.SpecializeMin == 0 {
		c.SpecializeMin = 32
	}
	return c
}

// TrainOutcome is one finished retrain: the candidate bundle plus the
// labeled-holdout accuracies the promotion gate consumes.
type TrainOutcome struct {
	// Bundle holds the candidate general model and any specialized heads.
	Bundle *core.Bundle
	// Epochs actually run (after any checkpoint resume).
	Epochs int
	// Resumed reports whether a checkpoint from a killed retrain was
	// picked up.
	Resumed bool
	// Specialized lists the services that received retrained heads.
	Specialized []int
	// HoldoutSamples is the size of the labeled holdout; zero means the
	// accuracy criterion is unavailable (no ground-truth feedback yet).
	HoldoutSamples int
	// HoldoutIncumbent / HoldoutCandidate are coarse-family accuracies of
	// the warm-start base and the candidate on the labeled holdout.
	HoldoutIncumbent float64
	HoldoutCandidate float64
}

// trainerCkpt is the gob layout of an epoch checkpoint.
type trainerCkpt struct {
	// Hash fingerprints (base model, training data, config); a resume is
	// only valid when it matches — otherwise the checkpoint is stale.
	Hash uint64
	// Epoch is the number of epochs finished.
	Epoch int
	// Model is the in-progress candidate, saved as a bundle with no
	// services (core.Bundle.Save). A checkpoint of an older model format
	// does not load, and its retrain starts again at epoch 0.
	Model []byte
}

// Trainer retrains a warm-started candidate in the background. It is
// stateless between Train calls except for the durable epoch checkpoint.
type Trainer struct {
	cfg  TrainerConfig
	ckpt *durable.Checkpointer
}

// NewTrainer builds a Trainer, opening the checkpoint store when
// configured.
func NewTrainer(cfg TrainerConfig) (*Trainer, error) {
	cfg = cfg.withDefaults()
	t := &Trainer{cfg: cfg}
	if cfg.CheckpointDir != "" {
		ck, err := durable.OpenCheckpointer(cfg.CheckpointDir, "retrain")
		if err != nil {
			return nil, fmt.Errorf("continual: open trainer checkpoints: %w", err)
		}
		t.ckpt = ck
	}
	return t, nil
}

func (t *Trainer) logf(format string, args ...any) {
	if t.cfg.Logf != nil {
		t.cfg.Logf(format, args...)
	}
}

// waitForCapacity blocks between epochs while the serving plane is over
// the pressure threshold. Returns the context error if canceled while
// waiting.
func (t *Trainer) waitForCapacity(ctx context.Context) error {
	if t.cfg.Load == nil {
		return ctx.Err()
	}
	paused := false
	// One reused timer for the whole pause: time.After inside the loop
	// would allocate a timer per poll that only frees when it fires —
	// counted as growth by leakcheck under fast poll intervals.
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
	}()
	for t.cfg.Load() > pauseAbove {
		if !paused {
			paused = true
			mTrainPauses.Inc()
			t.logf("continual: trainer paused (serving load %.2f > %.2f)", t.cfg.Load(), pauseAbove)
		}
		if timer == nil {
			timer = time.NewTimer(pausePoll)
		} else {
			timer.Reset(pausePoll)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
		}
	}
	if paused {
		mTrainResumes.Inc()
		t.logf("continual: trainer resumed")
	}
	return ctx.Err()
}

// dataHash fingerprints the (base, data, config) triple for checkpoint
// validity.
func (t *Trainer) dataHash(base *core.Model, train *dataset.Dataset) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(t.cfg.Epochs))
	put(uint64(t.cfg.Seed))
	// Hash the base weights directly: the parameter walk covers what a
	// resume must match, without encoding the whole model file.
	for _, p := range base.Net.Params() {
		for _, v := range p.Value.Data {
			put(math.Float64bits(v))
		}
	}
	put(uint64(train.Len()))
	for i := range train.Samples {
		s := &train.Samples[i]
		put(uint64(int64(s.Family)))
		for _, f := range s.Features {
			put(math.Float64bits(f))
		}
	}
	return h.Sum64()
}

// loadCheckpoint returns (model, epochsDone) when a valid checkpoint for
// this hash exists.
func (t *Trainer) loadCheckpoint(hash uint64) (*core.Model, int) {
	if t.ckpt == nil {
		return nil, 0
	}
	payload, _, err := t.ckpt.Load()
	if err != nil || payload == nil {
		return nil, 0
	}
	var ck trainerCkpt
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&ck); err != nil {
		return nil, 0
	}
	if ck.Hash != hash || ck.Epoch <= 0 {
		return nil, 0
	}
	b, err := core.LoadBundle(bytes.NewReader(ck.Model))
	if err != nil {
		return nil, 0
	}
	return b.General, ck.Epoch
}

func (t *Trainer) saveCheckpoint(hash uint64, epoch int, m *core.Model) {
	if t.ckpt == nil {
		return
	}
	var mb bytes.Buffer
	if err := core.NewBundle(m).Save(&mb); err != nil {
		return
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(trainerCkpt{Hash: hash, Epoch: epoch, Model: mb.Bytes()}); err != nil {
		return
	}
	if _, err := t.ckpt.Write(buf.Bytes()); err != nil {
		t.logf("continual: checkpoint write failed: %v", err)
	}
}

// clearCheckpoint invalidates the checkpoint after a finished retrain so
// the next cycle starts fresh.
func (t *Trainer) clearCheckpoint() {
	if t.ckpt == nil {
		return
	}
	var buf bytes.Buffer
	gob.NewEncoder(&buf).Encode(trainerCkpt{}) // zero hash never matches
	t.ckpt.Write(buf.Bytes())
}

// Train retrains base on train (warm start: the candidate begins from the
// promoted general model's weights, every parameter trainable — paper
// §IV-F freezing applies to the per-service heads, derived afterwards via
// core.Specialize). Epochs run one at a time so the worker can checkpoint,
// pause under serving pressure, and stop at a context cancel with at most
// one epoch of lost work.
func (t *Trainer) Train(ctx context.Context, base *core.Model, train, holdout *dataset.Dataset) (*TrainOutcome, error) {
	if base == nil {
		return nil, errors.New("continual: no base model")
	}
	if train.Len() == 0 {
		return nil, errors.New("continual: empty training set")
	}
	hash := t.dataHash(base, train)
	cur, done := t.loadCheckpoint(hash)
	resumed := cur != nil
	if cur == nil {
		cur, done = base, 0
	} else {
		t.logf("continual: resuming retrain from epoch %d", done)
	}

	ran := 0
	for epoch := done; epoch < t.cfg.Epochs; epoch++ {
		if err := t.waitForCapacity(ctx); err != nil {
			return nil, err
		}
		res, err := cur.Retrain(train, core.RetrainOptions{
			Epochs:    1,
			Patience:  t.cfg.Epochs + 1, // no early stop inside a single-epoch chunk
			BatchSize: t.cfg.BatchSize,
			Seed:      t.cfg.Seed + int64(epoch),
		})
		if err != nil {
			return nil, err
		}
		cur = res.Model
		ran++
		mTrainEpochs.Inc()
		t.saveCheckpoint(hash, epoch+1, cur)
	}

	bundle := core.NewBundle(cur)
	var specialized []int
	if t.cfg.SpecializeMin > 0 {
		for _, svc := range serviceIDs(train) {
			if train.FilterService(svc).Len() < t.cfg.SpecializeMin {
				continue
			}
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			spec := cur.Specialize(train, svc)
			bundle.Specialized[svc] = spec.Model
			specialized = append(specialized, svc)
		}
	}
	t.clearCheckpoint()

	out := &TrainOutcome{
		Bundle:      bundle,
		Epochs:      ran,
		Resumed:     resumed,
		Specialized: specialized,
	}
	if holdout != nil && holdout.Len() > 0 {
		out.HoldoutSamples = holdout.Len()
		out.HoldoutIncumbent = coarseAccuracy(base, holdout)
		out.HoldoutCandidate = coarseAccuracy(cur, holdout)
	}
	return out, nil
}

// serviceIDs lists the distinct services in the dataset, ascending.
func serviceIDs(d *dataset.Dataset) []int {
	seen := map[int]bool{}
	var ids []int
	for i := range d.Samples {
		if id := d.Samples[i].Service; !seen[id] {
			seen[id] = true
			ids = append(ids, id)
		}
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

// coarseAccuracy is the fraction of samples whose arg-max coarse family
// matches the label — the promotion gate's accuracy proxy.
func coarseAccuracy(m *core.Model, d *dataset.Dataset) float64 {
	if d.Len() == 0 {
		return 0
	}
	hit := 0
	for i := range d.Samples {
		s := &d.Samples[i]
		pred := m.CoarsePredict(s.Features, d.Layout)
		if argmax(pred) == int(s.Family) {
			hit++
		}
	}
	return float64(hit) / float64(d.Len())
}

// argmax returns the index of the largest element.
func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

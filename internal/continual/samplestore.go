// Package continual closes the learning loop: live samples observed by
// the serving plane are buffered (SampleStore), periodically retrained on
// (Trainer), compared with the incumbent on replayed served requests and
// judged by a gate (GateConfig), and hot-promoted with a regression
// watchdog (Controller). See DESIGN.md §15.
package continual

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"diagnet/internal/dataset"
	"diagnet/internal/durable"
	"diagnet/internal/probe"
	"diagnet/internal/stats"
)

// Sample is one live observation offered to the training buffer. Features
// are raw (unnormalized) and carried with the landmark layout they were
// measured under — layouts differ across probes and over time, so the
// store keeps them per-sample and lifts everything onto one layout only
// at export.
type Sample struct {
	// Service is the service the request diagnosed.
	Service int `json:"service"`
	// Landmarks is the layout the features were collected under.
	Landmarks []int `json:"landmarks"`
	// Features is the raw measurement vector (len = layout features).
	Features []float64 `json:"features"`
	// Family is the coarse label: the served model's own prediction for
	// pseudo-labeled flow samples, ground truth for feedback samples.
	Family int `json:"family"`
	// Cause is the root-cause feature index under the sample's own
	// layout, or -1 when unknown (the common case for live samples).
	Cause int `json:"cause"`
	// Labeled marks ground-truth feedback (incident resolution, QoE
	// annotation) as opposed to the model's own pseudo-label. Only
	// labeled samples count toward the promotion gate's holdout.
	Labeled bool `json:"labeled,omitempty"`
}

// stratumKey identifies one reservoir: the (service, coarse family) cell.
type stratumKey struct{ service, family int }

// stratum is one bounded reservoir (algorithm R over the offered stream).
type stratum struct {
	seen    int // samples ever offered to this cell
	samples []Sample
}

// StoreConfig configures a SampleStore.
type StoreConfig struct {
	// Dir, when set, backs the store with a write-ahead journal under it:
	// every accepted sample is journaled before Ingest acknowledges, and
	// OpenStore replays the journal so a restart keeps its buffer. Empty
	// keeps the store memory-only (tests, ephemeral replicas).
	Dir string
	// PerStratum bounds each (service, family) reservoir (default 64).
	PerStratum int
	// Seed drives the reservoir's RNG (default 1); replay after a crash
	// re-samples the journaled stream with the same seed, so recovery is
	// deterministic for a given journal.
	Seed int64
	// Fsync selects the journal's durability policy (zero is FsyncAlways).
	Fsync durable.FsyncPolicy
	// CompactEvery triggers journal compaction after this many ingests
	// (default 8× PerStratum; 0 uses the default, negative disables).
	CompactEvery int
}

func (c StoreConfig) withDefaults() StoreConfig {
	if c.PerStratum <= 0 {
		c.PerStratum = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.CompactEvery == 0 {
		c.CompactEvery = 8 * c.PerStratum
	}
	return c
}

// SampleStore is the bounded live training buffer: a stratified reservoir
// keyed by (service, coarse family), so one chatty service or one
// dominant fault family cannot wash out the rest of the distribution.
// All methods are safe for concurrent use.
type SampleStore struct {
	mu  sync.Mutex
	cfg StoreConfig
	// rng is the store's own locked, seedable source (same raw sequence as
	// the old bare rand.Rand, so journaled replays stay compatible): the
	// reservoir's draws must not interleave with any other component's.
	rng     *stats.LockedRand
	strata  map[stratumKey]*stratum
	jn      *durable.Journal
	total   int   // samples currently held
	pending int   // ingests since last compaction
	seen    int64 // samples ever offered
}

// OpenStore creates a SampleStore, replaying the journal in cfg.Dir when
// one exists.
func OpenStore(cfg StoreConfig) (*SampleStore, error) {
	cfg = cfg.withDefaults()
	s := &SampleStore{
		cfg:    cfg,
		rng:    stats.NewLocked(cfg.Seed),
		strata: make(map[stratumKey]*stratum),
	}
	if cfg.Dir == "" {
		return s, nil
	}
	jn, err := durable.Open(cfg.Dir, durable.Options{Fsync: cfg.Fsync})
	if err != nil {
		return nil, fmt.Errorf("continual: open sample journal: %w", err)
	}
	err = jn.Replay(func(payload []byte) error {
		var smp Sample
		if err := json.Unmarshal(payload, &smp); err != nil {
			return fmt.Errorf("continual: corrupt sample record: %w", err)
		}
		s.insert(smp) // replay re-samples the journaled stream
		return nil
	})
	if err != nil {
		jn.Close()
		return nil, err
	}
	s.jn = jn
	mStoreSize.Set(float64(s.total))
	return s, nil
}

// Ingest offers one sample to the buffer. The journal record is written
// (pre-ack) before the reservoir is touched, so an acknowledged sample
// survives a crash even if it is later evicted by reservoir pressure.
func (s *SampleStore) Ingest(smp Sample) error {
	if len(smp.Features) != probe.NewLayout(smp.Landmarks).NumFeatures() {
		mIngestDrop.Inc()
		return fmt.Errorf("continual: %d features for %d landmarks", len(smp.Features), len(smp.Landmarks))
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jn != nil {
		payload, err := json.Marshal(smp)
		if err != nil {
			return err
		}
		if err := s.jn.Append(payload); err != nil {
			return fmt.Errorf("continual: journal sample: %w", err)
		}
	}
	s.insert(smp)
	mIngested.Inc()
	mStoreSize.Set(float64(s.total))
	s.pending++
	if s.cfg.CompactEvery > 0 && s.pending >= s.cfg.CompactEvery {
		return s.compactLocked()
	}
	return nil
}

// insert runs the per-stratum reservoir step. Caller holds s.mu (or is
// single-threaded replay).
func (s *SampleStore) insert(smp Sample) {
	key := stratumKey{smp.Service, smp.Family}
	st := s.strata[key]
	if st == nil {
		st = &stratum{}
		s.strata[key] = st
	}
	st.seen++
	s.seen++
	if len(st.samples) < s.cfg.PerStratum {
		st.samples = append(st.samples, smp)
		s.total++
		return
	}
	if j := s.rng.Intn(st.seen); j < s.cfg.PerStratum {
		st.samples[j] = smp
	}
}

// Len returns the number of samples currently buffered.
func (s *SampleStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// LabeledLen returns how many buffered samples carry ground-truth labels.
func (s *SampleStore) LabeledLen() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, st := range s.strata {
		for i := range st.samples {
			if st.samples[i].Labeled {
				n++
			}
		}
	}
	return n
}

// Seen returns the number of samples ever offered to the store.
func (s *SampleStore) Seen() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seen
}

// Strata returns the number of non-empty (service, family) reservoirs.
func (s *SampleStore) Strata() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.strata)
}

// Compact rewrites the journal to hold only the samples currently in the
// reservoirs, bounding journal growth to O(buffer) instead of O(stream).
func (s *SampleStore) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.compactLocked()
}

func (s *SampleStore) compactLocked() error {
	s.pending = 0
	if s.jn == nil {
		return nil
	}
	seg, err := s.jn.Rotate()
	if err != nil {
		return fmt.Errorf("continual: compact rotate: %w", err)
	}
	for _, key := range s.sortedKeys() {
		for _, smp := range s.strata[key].samples {
			payload, err := json.Marshal(smp)
			if err != nil {
				return err
			}
			if err := s.jn.Append(payload); err != nil {
				return fmt.Errorf("continual: compact rewrite: %w", err)
			}
		}
	}
	if err := s.jn.Sync(); err != nil {
		return err
	}
	if err := s.jn.DropBefore(seg); err != nil {
		return fmt.Errorf("continual: compact drop: %w", err)
	}
	mCompactions.Inc()
	return nil
}

// sortedKeys returns stratum keys in deterministic order.
func (s *SampleStore) sortedKeys() []stratumKey {
	keys := make([]stratumKey, 0, len(s.strata))
	for k := range s.strata {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].service != keys[b].service {
			return keys[a].service < keys[b].service
		}
		return keys[a].family < keys[b].family
	})
	return keys
}

// Export lifts the buffered samples onto `full` (the base model's full
// layout) and splits them into a training set and a labeled holdout.
// holdoutFrac of the *labeled* samples (ground truth only — pseudo-labels
// must never grade the model that produced them) are withheld for the
// promotion gate's accuracy proxy; everything else trains. Landmarks the
// target layout does not know are dropped; landmarks it knows but the
// sample lacks stay zero-filled, matching the zero-fill convention of the
// auxiliary forest.
func (s *SampleStore) Export(full probe.Layout, holdoutFrac float64, seed int64) (train, holdout *dataset.Dataset) {
	s.mu.Lock()
	defer s.mu.Unlock()
	train = &dataset.Dataset{Layout: full}
	holdout = &dataset.Dataset{Layout: full}
	rng := stats.NewLocked(seed)
	for _, key := range s.sortedKeys() {
		for _, smp := range s.strata[key].samples {
			ds := liftSample(smp, full)
			if smp.Labeled && rng.Float64() < holdoutFrac {
				holdout.Append(ds)
			} else {
				train.Append(ds)
			}
		}
	}
	return train, holdout
}

// liftSample re-expresses one live sample under the target full layout.
func liftSample(smp Sample, full probe.Layout) dataset.Sample {
	from := probe.NewLayout(smp.Landmarks)
	feats := make([]float64, full.NumFeatures())
	for p, region := range from.Landmarks {
		fp := full.LandmarkPos(region)
		if fp < 0 {
			continue // landmark unknown to the training layout
		}
		for m := probe.Metric(0); m < probe.NumMetrics; m++ {
			feats[full.FeatureIndex(fp, m)] = smp.Features[from.FeatureIndex(p, m)]
		}
	}
	for li := 0; li < probe.NumLocal; li++ {
		feats[full.LocalIndex(li)] = smp.Features[from.LocalIndex(li)]
	}
	fam := probe.Family(smp.Family)
	return dataset.Sample{
		Features:    feats,
		Service:     smp.Service,
		Client:      -1,
		Degraded:    fam != probe.FamNominal,
		Cause:       liftCause(smp.Cause, from, full),
		Family:      fam,
		FaultRegion: -1,
		FaultKind:   -1,
	}
}

// liftCause translates a root-cause feature index between layouts (-1
// when unknown or when the causing landmark is absent from the target).
func liftCause(cause int, from, full probe.Layout) int {
	if cause < 0 || cause >= from.NumFeatures() {
		return -1
	}
	if from.IsLocal(cause) {
		return full.LocalIndex(cause - len(from.Landmarks)*int(probe.NumMetrics))
	}
	fp := full.LandmarkPos(from.Landmarks[cause/int(probe.NumMetrics)])
	if fp < 0 {
		return -1
	}
	return full.FeatureIndex(fp, probe.Metric(cause%int(probe.NumMetrics)))
}

// Close releases the journal (memory-only stores are a no-op).
func (s *SampleStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jn == nil {
		return nil
	}
	err := s.jn.Close()
	s.jn = nil
	return err
}

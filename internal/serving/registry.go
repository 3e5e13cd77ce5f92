package serving

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"diagnet/internal/core"
)

// Registry holds named model versions and the atomically swappable serving
// snapshot. Admin operations (Add, Promote, Rollback) are serialized by a
// mutex; the serving hot path only ever does one atomic pointer load per
// micro-batch, so diagnoses never wait on a swap and a swap never observes
// a half-updated model set. A registered version is the bundle it was
// added with: nothing installs models into it afterwards, so per-service
// heads ship inside the bundle (core.Bundle, diagnet train -bundle).
type Registry struct {
	workers int

	mu       sync.Mutex
	versions map[string]*core.Bundle
	order    []string // insertion order, for stable listings
	history  []string // promotion history; last entry is the active version
	persist  *Persistence

	cur atomic.Pointer[snapshot]
}

// snapshot is one immutable, fully warmed serving configuration: one bundle
// session (core.Bundle.NewSession) per worker, indexed by worker ID. A
// session owns the layer caches an inference pass writes and the scratch
// that keeps the hot path allocation-light; the weights, forest and
// normalizer it reads are the one copy the version's bundle holds, which is
// never written. Nothing in a snapshot is mutated after Store other than
// each session by its own worker, so readers need no locks.
type snapshot struct {
	version  string
	sessions []*core.Session
}

// NewRegistry builds a registry whose snapshots carry `workers` sessions.
func NewRegistry(workers int) *Registry {
	if workers <= 0 {
		workers = 1
	}
	return &Registry{workers: workers, versions: map[string]*core.Bundle{}}
}

// current returns the active snapshot (nil before the first promotion).
func (r *Registry) current() *snapshot { return r.cur.Load() }

// Add registers a version without serving it. Version names are
// caller-chosen identifiers ("boot", "v2", "retrain-2026-08-06"); adding
// an existing name is an error (versions are immutable once registered —
// register the retrain under a new name and Promote it).
func (r *Registry) Add(version string, b *core.Bundle) error {
	if version == "" {
		return fmt.Errorf("serving: empty version name")
	}
	if b == nil || b.General == nil {
		return fmt.Errorf("serving: version %q has no general model", version)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.versions[version]; ok {
		return fmt.Errorf("serving: version %q already registered", version)
	}
	r.versions[version] = b
	r.order = append(r.order, version)
	return nil
}

// AddModel registers a bare general model as a version.
func (r *Registry) AddModel(version string, m *core.Model) error {
	if m == nil {
		return fmt.Errorf("serving: version %q has no general model", version)
	}
	return r.Add(version, core.NewBundle(m))
}

// Promote builds one bundle session per worker for the named version, warms
// each up with a real inference through every model, and atomically swaps
// it in. In-flight batches finish on the snapshot they started with; the
// warm-up means the first post-swap request finds every session's caches
// and scratch already sized, and a model that cannot produce a finite
// distribution is rejected before any traffic reaches it.
func (r *Registry) Promote(version string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.promoteLocked(version, true)
}

// promoteLocked is Promote with r.mu held. record=false suppresses the
// state journal (recovery replays, rollback — which journals its own
// record).
func (r *Registry) promoteLocked(version string, record bool) error {
	b, ok := r.versions[version]
	if !ok {
		return fmt.Errorf("serving: unknown version %q", version)
	}
	snap, err := r.buildSnapshot(version, b)
	if err != nil {
		return err
	}
	// WAL discipline: the journal acknowledges the promotion before the
	// swap is visible. A crash between the two replays the promotion at
	// recovery — harmless; the reverse order could acknowledge a
	// promotion a restart forgets.
	if record && r.persist != nil {
		if err := r.persist.recordPromote(version); err != nil {
			return fmt.Errorf("serving: journal promotion: %w", err)
		}
	}
	r.cur.Store(snap)
	if n := len(r.history); n == 0 || r.history[n-1] != version {
		r.history = append(r.history, version)
	}
	mSwaps.Inc()
	return nil
}

// History returns the promotion history, oldest first; the last entry is
// the active version.
func (r *Registry) History() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.history...)
}

// AttachPersistence wires a state log into the registry: every
// subsequent promotion and rollback is journaled before it is
// acknowledged. Attach before Recover so a restarted process
// replays into the same log it then appends to.
func (r *Registry) AttachPersistence(p *Persistence) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.persist = p
}

// restoreState installs a recovered promotion history and re-promotes
// the recovered active version without journaling (the journal already
// says so).
func (r *Registry) restoreState(history []string, active string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	old := r.history
	r.history = append([]string(nil), history...)
	if err := r.promoteLocked(active, false); err != nil {
		r.history = old
		return err
	}
	return nil
}

// Rollback re-promotes the previously active version and reports which
// version is active afterwards. Repeated rollbacks walk further back
// through the promotion history.
func (r *Registry) Rollback() (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.history) < 2 {
		return "", fmt.Errorf("serving: no previous version to roll back to")
	}
	prev := r.history[len(r.history)-2]
	if r.persist != nil {
		if err := r.persist.recordRollback(prev); err != nil {
			return "", fmt.Errorf("serving: journal rollback: %w", err)
		}
	}
	r.history = r.history[:len(r.history)-2]
	if err := r.promoteLocked(prev, false); err != nil {
		return "", err
	}
	return prev, nil
}

// buildSnapshot builds one session per worker, called with r.mu held.
// Every session is warmed up with one real inference per model: that sizes
// its layer caches and scratch, and proves each model still produces a
// finite coarse distribution before promotion exposes it to traffic.
func (r *Registry) buildSnapshot(version string, b *core.Bundle) (*snapshot, error) {
	snap := &snapshot{version: version, sessions: make([]*core.Session, r.workers)}
	layout := b.General.TrainLayout
	rows := []core.Row{{Service: -1, Layout: layout, Features: make([]float64, layout.NumFeatures())}}
	for id := range b.Specialized {
		rows = append(rows, core.Row{Service: id, Layout: layout, Features: rows[0].Features})
	}
	for w := range snap.sessions {
		sess := b.NewSession()
		for i, d := range sess.DiagnoseRows(context.Background(), rows) {
			for _, p := range d.Coarse {
				if math.IsNaN(p) || math.IsInf(p, 0) {
					return nil, fmt.Errorf("serving: version %q service %d: warm-up produced a non-finite coarse distribution", version, rows[i].Service)
				}
			}
			mWarmups.Inc()
		}
		snap.sessions[w] = sess
	}
	return snap, nil
}

// Active returns the live version name ("" before the first promotion).
func (r *Registry) Active() string {
	if snap := r.cur.Load(); snap != nil {
		return snap.version
	}
	return ""
}

// ActiveBundle returns the active version's models and name, for
// validation and introspection (the bundle is read-only by convention).
func (r *Registry) ActiveBundle() (*core.Bundle, string, error) {
	snap := r.cur.Load()
	if snap == nil {
		return nil, "", ErrNoModel
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.versions[snap.version], snap.version, nil
}

// VersionInfo describes one registered version.
type VersionInfo struct {
	Name        string `json:"name"`
	Active      bool   `json:"active"`
	Specialized []int  `json:"specialized_services"`
	TotalParams int    `json:"total_params"`
}

// Versions lists registered versions in registration order.
func (r *Registry) Versions() []VersionInfo {
	active := r.Active()
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]VersionInfo, 0, len(r.order))
	for _, name := range r.order {
		b := r.versions[name]
		info := VersionInfo{Name: name, Active: name == active}
		info.TotalParams, _ = b.General.ParamCount()
		for id := range b.Specialized {
			info.Specialized = append(info.Specialized, id)
		}
		sort.Ints(info.Specialized)
		out = append(out, info)
	}
	return out
}

// LoadFile registers one bundle file (core.LoadBundle) as a version.
func (r *Registry) LoadFile(version, path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("serving: %w", err)
	}
	b, err := core.LoadBundle(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("serving: %s: %w", path, err)
	}
	return r.Add(version, b)
}

// LoadDir registers every *.gob file in dir as a version named after the
// file (base name without extension), in sorted order, and returns the
// version names. Nothing is promoted — the caller picks.
func (r *Registry) LoadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("serving: model dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".gob") {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)
	versions := make([]string, 0, len(names))
	for _, name := range names {
		version := strings.TrimSuffix(name, ".gob")
		if err := r.LoadFile(version, filepath.Join(dir, name)); err != nil {
			return versions, err
		}
		versions = append(versions, version)
	}
	return versions, nil
}

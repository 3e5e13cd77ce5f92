package serving

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"path/filepath"
	"sync"

	"diagnet/internal/durable"
)

// Persistence makes the registry's version lifecycle crash-safe
// (DESIGN.md §13): every promotion and rollback is journaled
// (write-ahead, CRC-checked) before it is acknowledged, and a restarted
// diagnetd replays checkpoint + journal to recover the exact serving
// version and promotion history without operator intervention.
//
// Model weights are not journaled: versions are re-registered from their
// files (-model-dir) on boot, and a version's bundle already carries its
// per-service heads.
type Persistence struct {
	j    *durable.Journal
	ckpt *durable.Checkpointer

	mu    sync.Mutex
	state registryState // in-memory mirror of the journaled lifecycle
}

// registryState is the checkpoint payload: everything needed to restore
// the lifecycle given the versions' model files.
type registryState struct {
	Active  string   `json:"active"`
	History []string `json:"history"`
}

// stateRecord is one journaled lifecycle operation.
type stateRecord struct {
	Op      string `json:"op"` // promote | rollback
	Version string `json:"version,omitempty"`
}

// OpenPersistence opens (creating if needed) the registry state plane
// under dir: a journal in dir/journal and checkpoints in dir itself.
func OpenPersistence(dir string, policy durable.FsyncPolicy) (*Persistence, error) {
	j, err := durable.Open(filepath.Join(dir, "journal"), durable.Options{Fsync: policy})
	if err != nil {
		return nil, err
	}
	ckpt, err := durable.OpenCheckpointer(dir, "registry")
	if err != nil {
		j.Close()
		return nil, err
	}
	return &Persistence{j: j, ckpt: ckpt}, nil
}

// Recover loads the checkpoint, folds the journal on top, and applies
// the result to the registry: the promotion history is restored and the
// last acknowledged active version is re-promoted (warm-up included). It
// returns the recovered active version ("" when there is no state yet).
//
// Call after the registry's versions are registered (e.g. LoadDir) and
// after AttachPersistence, but before the listener opens — recovery must
// finish before the first request can observe a default promotion.
func (p *Persistence) Recover(r *Registry) (string, error) {
	p.mu.Lock()
	if payload, _, err := p.ckpt.Load(); err == nil {
		if err := json.Unmarshal(payload, &p.state); err != nil {
			p.mu.Unlock()
			return "", fmt.Errorf("serving: corrupt registry checkpoint: %w", err)
		}
	} else if err != durable.ErrNoCheckpoint {
		p.mu.Unlock()
		return "", err
	}
	err := p.j.Replay(func(rec []byte) error {
		var sr stateRecord
		if err := json.Unmarshal(rec, &sr); err != nil {
			// The journal's CRC already vouched for the bytes; undecodable
			// JSON means a version-skew record. Skip rather than refuse to
			// boot.
			slog.Warn("serving: skipping undecodable state record", "err", err)
			return nil
		}
		p.applyLocked(&sr)
		mStateReplayed.Inc()
		return nil
	})
	state := p.state
	p.mu.Unlock()
	if err != nil {
		return "", err
	}
	if state.Active == "" {
		return "", nil
	}
	if err := r.restoreState(state.History, state.Active); err != nil {
		return "", fmt.Errorf("serving: re-promote recovered version %q: %w", state.Active, err)
	}
	mStateRecovered.Inc()
	return state.Active, nil
}

// applyLocked folds one journal record into the state mirror, mirroring
// the registry's own history rules. Caller holds p.mu.
func (p *Persistence) applyLocked(sr *stateRecord) {
	switch sr.Op {
	case "promote":
		if n := len(p.state.History); n == 0 || p.state.History[n-1] != sr.Version {
			p.state.History = append(p.state.History, sr.Version)
		}
		p.state.Active = sr.Version
	case "rollback":
		if n := len(p.state.History); n >= 2 {
			prev := p.state.History[n-2]
			p.state.History = p.state.History[:n-2]
			p.state.History = append(p.state.History, prev)
			p.state.Active = prev
		}
	}
}

// append journals one record and folds it into the mirror. The journal
// append is the durability acknowledgement.
func (p *Persistence) append(sr *stateRecord) error {
	rec, err := json.Marshal(sr)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if err := p.j.Append(rec); err != nil {
		return err
	}
	p.applyLocked(sr)
	return nil
}

func (p *Persistence) recordPromote(version string) error {
	return p.append(&stateRecord{Op: "promote", Version: version})
}

func (p *Persistence) recordRollback(to string) error {
	return p.append(&stateRecord{Op: "rollback", Version: to})
}

// Checkpoint publishes the state mirror as a new checkpoint generation
// and compacts the journal to a fresh empty segment — the SIGHUP path,
// and the post-recovery compaction at boot.
func (p *Persistence) Checkpoint() (uint64, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	payload, err := json.Marshal(p.state)
	if err != nil {
		return 0, err
	}
	// Rotate first: records after the rotation point belong to the next
	// checkpoint's journal suffix. The checkpoint captures everything
	// before it, so older segments can go.
	seg, err := p.j.Rotate()
	if err != nil {
		return 0, err
	}
	gen, err := p.ckpt.Write(payload)
	if err != nil {
		return 0, err
	}
	if err := p.j.DropBefore(seg); err != nil {
		return gen, err
	}
	return gen, nil
}

// State returns a copy of the current lifecycle mirror (diagnostics).
func (p *Persistence) State() (active string, history []string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.state.Active, append([]string(nil), p.state.History...)
}

// Close syncs and closes the journal.
func (p *Persistence) Close() error { return p.j.Close() }

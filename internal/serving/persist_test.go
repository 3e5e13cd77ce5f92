package serving

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"diagnet/internal/core"
	"diagnet/internal/durable"
)

// openPersistent simulates one diagnetd boot: a fresh registry with the
// named versions registered, persistence attached, and recovery run.
// Returns the recovered active version.
func openPersistent(t *testing.T, dir string, versions ...string) (*Registry, *Persistence, string) {
	t.Helper()
	m, _ := fixture(t)
	reg := NewRegistry(1)
	for _, v := range versions {
		if err := reg.AddModel(v, m); err != nil {
			t.Fatal(err)
		}
	}
	p, err := OpenPersistence(dir, durable.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	reg.AttachPersistence(p)
	active, err := p.Recover(reg)
	if err != nil {
		t.Fatal(err)
	}
	return reg, p, active
}

func TestRegistryRecoveryAfterRestart(t *testing.T) {
	dir := t.TempDir()
	reg, _, active := openPersistent(t, dir, "v1", "v2", "v3")
	if active != "" {
		t.Fatalf("fresh state dir recovered %q", active)
	}
	for _, v := range []string{"v1", "v2"} {
		if err := reg.Promote(v); err != nil {
			t.Fatal(err)
		}
	}

	// "Restart": a new registry over the same state dir recovers the last
	// acknowledged promotion and the full history.
	reg2, _, active2 := openPersistent(t, dir, "v1", "v2", "v3")
	if active2 != "v2" || reg2.Active() != "v2" {
		t.Fatalf("recovered active = %q / %q, want v2", active2, reg2.Active())
	}
	if h := reg2.History(); !reflect.DeepEqual(h, []string{"v1", "v2"}) {
		t.Fatalf("recovered history = %v", h)
	}
	// Rollback still works across the restart (satellite requirement).
	prev, err := reg2.Rollback()
	if err != nil || prev != "v1" {
		t.Fatalf("rollback after restart = %q, %v", prev, err)
	}
	// And the rollback itself survives the next restart.
	reg3, _, active3 := openPersistent(t, dir, "v1", "v2", "v3")
	if active3 != "v1" || reg3.Active() != "v1" {
		t.Fatalf("post-rollback recovery = %q / %q, want v1", active3, reg3.Active())
	}
}

func TestRegistryPromoteCrashPostSyncSurvives(t *testing.T) {
	dir := t.TempDir()
	reg, _, _ := openPersistent(t, dir, "v1", "v2")
	if err := reg.Promote("v1"); err != nil {
		t.Fatal(err)
	}
	// The promotion record reaches fsync (the acknowledgement point),
	// then the process dies before the in-memory swap.
	durable.SetCrashPoint(durable.CrashPostSync)
	defer durable.ClearCrashPoint()
	crashed := false
	func() {
		defer durable.RecoverCrash(&crashed)
		reg.Promote("v2")
	}()
	if !crashed {
		t.Fatal("crash point did not fire")
	}
	_, _, active := openPersistent(t, dir, "v1", "v2")
	if active != "v2" {
		t.Fatalf("fsync-acknowledged promotion lost: recovered %q", active)
	}
}

func TestRegistryPromoteCrashPreSyncKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	reg, _, _ := openPersistent(t, dir, "v1", "v2")
	if err := reg.Promote("v1"); err != nil {
		t.Fatal(err)
	}
	durable.SetCrashPoint(durable.CrashPreSync)
	defer durable.ClearCrashPoint()
	crashed := false
	func() {
		defer durable.RecoverCrash(&crashed)
		reg.Promote("v2")
	}()
	if !crashed {
		t.Fatal("crash point did not fire")
	}
	// The v2 promotion was never acknowledged. Recovery may or may not
	// see its record (the write happened; only the sync was skipped), but
	// must serve a version — and if it serves v1, history must be intact.
	reg2, _, active := openPersistent(t, dir, "v1", "v2")
	if active != "v1" && active != "v2" {
		t.Fatalf("recovered active = %q", active)
	}
	if reg2.Active() != active {
		t.Fatalf("registry active %q != recovered %q", reg2.Active(), active)
	}
}

func TestRegistryPromoteCrashMidAppendTornRecordDropped(t *testing.T) {
	dir := t.TempDir()
	reg, _, _ := openPersistent(t, dir, "v1", "v2")
	if err := reg.Promote("v1"); err != nil {
		t.Fatal(err)
	}
	durable.SetCrashPoint(durable.CrashMidAppend)
	defer durable.ClearCrashPoint()
	crashed := false
	func() {
		defer durable.RecoverCrash(&crashed)
		reg.Promote("v2")
	}()
	if !crashed {
		t.Fatal("crash point did not fire")
	}
	// A torn record is truncated at recovery: the unacknowledged v2
	// promotion is gone, v1 serves.
	_, _, active := openPersistent(t, dir, "v1", "v2")
	if active != "v1" {
		t.Fatalf("torn promotion should be dropped; recovered %q", active)
	}
}

func TestRegistryCheckpointCompactsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	reg, p, _ := openPersistent(t, dir, "v1", "v2", "v3")
	for _, v := range []string{"v1", "v2"} {
		if err := reg.Promote(v); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Lifecycle continues after the checkpoint; recovery folds journal
	// records on top of the checkpointed state.
	if err := reg.Promote("v3"); err != nil {
		t.Fatal(err)
	}
	reg2, _, active := openPersistent(t, dir, "v1", "v2", "v3")
	if active != "v3" {
		t.Fatalf("recovered %q, want v3", active)
	}
	if h := reg2.History(); !reflect.DeepEqual(h, []string{"v1", "v2", "v3"}) {
		t.Fatalf("recovered history = %v", h)
	}
}

func TestRegistryCheckpointCrashPreRenameRecovers(t *testing.T) {
	dir := t.TempDir()
	reg, p, _ := openPersistent(t, dir, "v1", "v2")
	if err := reg.Promote("v1"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote("v2"); err != nil {
		t.Fatal(err)
	}
	durable.SetCrashPoint(durable.CrashPreRename)
	defer durable.ClearCrashPoint()
	crashed := false
	func() {
		defer durable.RecoverCrash(&crashed)
		p.Checkpoint()
	}()
	if !crashed {
		t.Fatal("crash point did not fire")
	}
	// The new checkpoint generation was never published; the old one plus
	// the journal suffix must still recover v2. (The journal rotated
	// before the checkpoint died, but DropBefore never ran, so the
	// records survive.)
	_, _, active := openPersistent(t, dir, "v1", "v2")
	if active != "v2" {
		t.Fatalf("recovered %q after checkpoint crash, want v2", active)
	}
}

// TestBundleHoldsOneTrunkOneForestAcrossRecovery is the serving half of
// core's TestBundleHoldsOneTrunkOneForest: a version registered from a
// bundle file, whose heads are decoded and folded onto the general model
// through core.Bundle.Attach, holds one trunk and one forest once
// promoted, and a restarted process that registers the same file and
// recovers the promotion from the journal serves a head that answers
// exactly like the one specialized in memory.
func TestBundleHoldsOneTrunkOneForestAcrossRecovery(t *testing.T) {
	dir := t.TempDir()
	m, test := fixture(t)
	deg := test.Degraded()
	svc := deg.Samples[0].Service
	b := core.NewBundle(m)
	b.SpecializeAll(test, []int{svc})
	spec := b.Specialized[svc]
	var blob bytes.Buffer
	if err := b.Save(&blob); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "v1.gob")
	if err := os.WriteFile(path, blob.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	boot := func() *Registry {
		t.Helper()
		reg := NewRegistry(1)
		if err := reg.LoadFile("v1", path); err != nil {
			t.Fatal(err)
		}
		p, err := OpenPersistence(dir, durable.FsyncAlways)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { p.Close() })
		reg.AttachPersistence(p)
		if _, err := p.Recover(reg); err != nil {
			t.Fatal(err)
		}
		return reg
	}
	holdsOne := func(when string, reg *Registry) *core.Model {
		t.Helper()
		b, _, err := reg.ActiveBundle()
		if err != nil {
			t.Fatal(err)
		}
		held := b.Specialized[svc]
		if held == nil {
			t.Fatalf("%s: service %d has no specialized model", when, svc)
		}
		for i, p := range held.Net.Params() {
			if shared := p.Value == b.General.Net.Params()[i].Value; shared != (i < 4) {
				t.Fatalf("%s: param %d shared with the general model = %v, want exactly the four trunk parameters", when, i, shared)
			}
		}
		if held.Aux != b.General.Aux || held.Norm != b.General.Norm {
			t.Fatalf("%s: the specialized model holds its own forest or normalizer", when)
		}
		return held
	}

	reg := boot()
	if err := reg.Promote("v1"); err != nil {
		t.Fatal(err)
	}
	holdsOne("after promotion", reg)

	reg2 := boot()
	if reg2.Active() != "v1" {
		t.Fatalf("recovered %q, want v1", reg2.Active())
	}
	recovered := holdsOne("after journal recovery", reg2)
	for i := 0; i < 8; i++ {
		s := &deg.Samples[i]
		if !reflect.DeepEqual(spec.Diagnose(s.Features, test.Layout), recovered.Diagnose(s.Features, test.Layout)) {
			t.Fatalf("sample %d: the recovered specialized model diagnoses differently", i)
		}
	}
}

// TestRegistryRecoversStateWithSpecializeRecords: a state dir written when
// specialized models could still be installed into a registered version —
// its journal carries a "specialize" record, its checkpoint a
// "specialized" list, both naming a spec-*.gob model copy in the dir —
// boots to the same active version and history. The old records are
// ignored and the copy, present or not, is never read: every version
// serves exactly the bundle it was registered with.
func TestRegistryRecoversStateWithSpecializeRecords(t *testing.T) {
	m, _ := fixture(t)
	const file = "spec-7631-3.gob" // version "v1" hex-encoded, service 3
	for name, withFile := range map[string]bool{"copy on disk": true, "copy missing": false} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			ckpt, err := durable.OpenCheckpointer(dir, "registry")
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ckpt.Write([]byte(`{"active":"v1","history":["v1"],"specialized":[{"version":"v1","service":3,"file":"` + file + `"}]}`)); err != nil {
				t.Fatal(err)
			}
			j, err := durable.Open(filepath.Join(dir, "journal"), durable.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range []string{
				`{"op":"promote","version":"v1"}`,
				`{"op":"specialize","version":"v1","service":3,"file":"` + file + `"}`,
				`{"op":"promote","version":"v2"}`,
			} {
				if err := j.Append([]byte(rec)); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			if withFile {
				var buf bytes.Buffer
				if err := core.NewBundle(m).Save(&buf); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, file), buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			reg, _, active := openPersistent(t, dir, "v1", "v2")
			if active != "v2" || reg.Active() != "v2" {
				t.Fatalf("recovered active = %q / %q, want v2", active, reg.Active())
			}
			if h := reg.History(); !reflect.DeepEqual(h, []string{"v1", "v2"}) {
				t.Fatalf("recovered history = %v, want [v1 v2]", h)
			}
			for _, v := range reg.Versions() {
				if len(v.Specialized) != 0 {
					t.Fatalf("version %q serves specialized models %v it was not registered with", v.Name, v.Specialized)
				}
			}
			if _, err := os.Stat(filepath.Join(dir, file)); withFile && err != nil {
				t.Fatalf("the old model copy is gone: %v", err)
			}
		})
	}
}

// TestRegistryRecoveryMissingVersion pins the degraded path: the journal
// names an active version whose model file is gone. Recover must fail
// loudly (the caller falls back to its default promotion) rather than
// serve nothing or panic.
func TestRegistryRecoveryMissingVersion(t *testing.T) {
	dir := t.TempDir()
	reg, _, _ := openPersistent(t, dir, "v1", "v2")
	if err := reg.Promote("v2"); err != nil {
		t.Fatal(err)
	}
	m, _ := fixture(t)
	reg2 := NewRegistry(1)
	if err := reg2.AddModel("v1", m); err != nil { // v2's file "disappeared"
		t.Fatal(err)
	}
	p, err := OpenPersistence(dir, durable.FsyncAlways)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	reg2.AttachPersistence(p)
	if _, err := p.Recover(reg2); err == nil {
		t.Fatal("want recovery error for missing active version")
	}
}

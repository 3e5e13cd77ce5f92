package durable

import (
	"errors"
	"sync"
)

// Deterministic crash injection (modeled on the PR 1 chaos harness, which
// injects faults into the probing plane; this one injects process death
// into the write path). A test arms one CrashPoint; the next time the
// write path reaches it, the package panics with errInjectedCrash —
// leaving the on-disk state exactly as a real crash at that instant
// would. The test recovers the panic, reopens the state directory, and
// asserts the recovery invariants.
//
// Points are one-shot: crashing disarms, so recovery code running in the
// same process does not crash again.

// CrashPoint names a deterministic crash site in the write path.
type CrashPoint string

const (
	// CrashMidAppend dies after a prefix of a journal record reached the
	// disk — the torn-write case.
	CrashMidAppend CrashPoint = "mid-append"
	// CrashPreSync dies after a full record write but before fsync: the
	// record may or may not survive, and was never acknowledged.
	CrashPreSync CrashPoint = "pre-sync"
	// CrashPostSync dies right after fsync: the record was (or was about
	// to be) acknowledged and must survive recovery.
	CrashPostSync CrashPoint = "post-sync"
	// CrashPreRename dies in WriteFile after the temp file is written
	// and fsynced but before the atomic rename publishes it.
	CrashPreRename CrashPoint = "pre-rename"
	// CrashPostRename dies in WriteFile after the rename and directory
	// fsync, before the caller's next step (a checkpoint's pruning of old
	// generations).
	CrashPostRename CrashPoint = "post-rename"
)

// errInjectedCrash is the panic value raised at an armed crash point.
// Harness code recovers it with RecoverCrash.
var errInjectedCrash = errors.New("durable: injected crash")

var (
	crashMu    sync.Mutex
	crashPoint CrashPoint // "" = disarmed
	crashDir   string     // "" = any journal or checkpointer in the process
)

// SetCrashPoint arms one crash point (one-shot). Tests only.
func SetCrashPoint(p CrashPoint) { SetCrashPointIn("", p) }

// SetCrashPointIn arms p for the journal or checkpointer rooted at dir
// only: a process running several state planes (the soak) can kill one
// without a live one reaching the point first.
func SetCrashPointIn(dir string, p CrashPoint) {
	crashMu.Lock()
	crashPoint, crashDir = p, dir
	crashMu.Unlock()
}

// ClearCrashPoint disarms injection.
func ClearCrashPoint() { SetCrashPoint("") }

// crashArmed reports whether p is armed for dir without tripping it — for
// sites that must corrupt state before dying (torn writes).
func crashArmed(p CrashPoint, dir string) bool {
	crashMu.Lock()
	defer crashMu.Unlock()
	return crashPoint == p && (crashDir == "" || crashDir == dir)
}

// crash panics with errInjectedCrash if p is armed for dir, disarming
// first.
func crash(p CrashPoint, dir string) {
	crashMu.Lock()
	if crashPoint != p || (crashDir != "" && crashDir != dir) {
		crashMu.Unlock()
		return
	}
	crashPoint = ""
	crashMu.Unlock()
	panic(errInjectedCrash)
}

// RecoverCrash absorbs an injected-crash panic; any other panic value is
// re-raised. Use in tests as:
//
//	func() {
//	    defer durable.RecoverCrash(&crashed)
//	    _ = journal.Append(rec) // armed point dies here
//	}()
func RecoverCrash(crashed *bool) {
	switch r := recover(); r {
	case nil:
	case errInjectedCrash:
		if crashed != nil {
			*crashed = true
		}
	default:
		panic(r)
	}
}

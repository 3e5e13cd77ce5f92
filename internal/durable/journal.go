// Package durable is DiagNet's crash-safe state plane: a checksummed
// write-ahead journal with bounded segments and an atomic checkpoint
// writer, shared by every stateful component (the serving registry's
// version lifecycle, the collector's event stream, the agent's pending
// uploads). The guarantees are the classic WAL pair:
//
//   - a record acknowledged under FsyncAlways survives a crash at any
//     later instant (append → fsync → ack), and
//   - replay after a crash never yields a torn or corrupt record — the
//     journal is truncated at the first record whose length prefix or
//     CRC32C fails, and every later segment is discarded (records after
//     a corruption point have no ordering guarantee).
//
// The package also hosts the deterministic crash-injection points
// (crashpoint.go) the recovery tests use to prove those invariants.
package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Segment file layout:
//
//	8-byte magic "DJNL\x00\x00\x00\x01"
//	repeated records: u32 payload length (LE) | u32 CRC32C(payload) | payload
//
// The length prefix is bounded by maxRecordBytes so a corrupt length
// cannot drive a multi-gigabyte allocation during replay.
var segMagic = []byte("DJNL\x00\x00\x00\x01")

const recHeaderBytes = 8 // u32 len + u32 crc

// crcTable is the Castagnoli polynomial (CRC32C) — hardware-accelerated
// on amd64/arm64, and the same checksum the big WAL implementations
// (LevelDB, etcd) settled on.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// FsyncPolicy selects how eagerly appends reach stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs before Append returns: an acknowledged record is
	// durable. The default, and the policy the recovery invariants assume.
	FsyncAlways FsyncPolicy = iota
	// FsyncBatch syncs every Options.BatchAppends appends and on
	// Sync/Rotate/Close — bounded loss window, much higher throughput.
	FsyncBatch
	// FsyncNever leaves syncing to the OS page cache (tests, or state
	// that is merely nice to keep).
	FsyncNever
)

// ParseFsyncPolicy maps the -fsync flag values to a policy.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always", "":
		return FsyncAlways, nil
	case "batch":
		return FsyncBatch, nil
	case "never":
		return FsyncNever, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always, batch or never)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncBatch:
		return "batch"
	case FsyncNever:
		return "never"
	}
	return "always"
}

// Options tunes a journal.
type Options struct {
	// Fsync is the append durability policy (default FsyncAlways).
	Fsync FsyncPolicy
	// BatchAppends is the FsyncBatch sync cadence (default 64).
	BatchAppends int
	// SegmentBytes caps one segment file; appends past the cap rotate to
	// a fresh segment (default 4 MiB).
	SegmentBytes int64
}

// maxRecordBytes bounds one record's payload.
const maxRecordBytes = 16 << 20

func (o Options) withDefaults() Options {
	if o.BatchAppends <= 0 {
		o.BatchAppends = 64
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	return o
}

// Journal is a segmented write-ahead log. Append/Sync/Rotate are safe for
// concurrent use; Replay must run before the first Append (it reads the
// on-disk state recovery left behind).
type Journal struct {
	dir string
	opt Options

	mu       sync.Mutex
	f        *os.File
	seg      uint64 // index of the open segment
	size     int64  // bytes written to the open segment
	pending  int    // appends since the last sync (FsyncBatch)
	appended bool   // an Append happened; Replay is no longer allowed
	closed   bool
}

// segName formats a segment file name; the zero-padded hex index keeps
// lexical order equal to numeric order.
func segName(idx uint64) string { return fmt.Sprintf("journal-%016x.seg", idx) }

// parseSegName inverts segName.
func parseSegName(name string) (uint64, bool) {
	var idx uint64
	if _, err := fmt.Sscanf(name, "journal-%016x.seg", &idx); err != nil {
		return 0, false
	}
	return idx, true
}

// Open opens (creating if needed) the journal in dir and repairs the
// crash state: segments are scanned in order and the journal is truncated
// at the first torn or corrupt record — the tail of that segment and
// every later segment are discarded. Open never discards a record that
// passes its checksum before the corruption point.
func Open(dir string, opt Options) (*Journal, error) {
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: journal dir: %w", err)
	}
	j := &Journal{dir: dir, opt: opt}
	segs, err := j.segments()
	if err != nil {
		return nil, err
	}
	if err := j.repair(segs); err != nil {
		return nil, err
	}
	// Reload the (possibly truncated) segment list and open the last
	// segment for append, or start segment 0.
	segs, err = j.segments()
	if err != nil {
		return nil, err
	}
	if len(segs) == 0 {
		return j, j.openSegmentLocked(0)
	}
	last := segs[len(segs)-1]
	f, err := os.OpenFile(filepath.Join(dir, segName(last)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durable: reopen segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("durable: stat segment: %w", err)
	}
	j.f, j.seg, j.size = f, last, st.Size()
	return j, nil
}

// segments lists the segment indices present in dir, ascending.
func (j *Journal) segments() ([]uint64, error) {
	entries, err := os.ReadDir(j.dir)
	if err != nil {
		return nil, fmt.Errorf("durable: journal dir: %w", err)
	}
	var out []uint64
	for _, e := range entries {
		if idx, ok := parseSegName(e.Name()); ok && !e.IsDir() {
			out = append(out, idx)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// repair walks the segments, truncating the first one holding a corrupt
// record at its last valid offset and deleting every segment after it.
func (j *Journal) repair(segs []uint64) error {
	for i, idx := range segs {
		path := filepath.Join(j.dir, segName(idx))
		valid, clean, err := scanSegmentFile(path, maxRecordBytes, nil)
		if err != nil {
			return err
		}
		if clean {
			continue
		}
		mTruncations.Inc()
		if valid < int64(len(segMagic)) {
			// Not even a valid header survived: the file is unusable for
			// appends, so drop it entirely.
			if err := os.Remove(path); err != nil {
				return fmt.Errorf("durable: drop headerless segment: %w", err)
			}
		} else if err := os.Truncate(path, valid); err != nil {
			return fmt.Errorf("durable: truncate torn segment: %w", err)
		}
		for _, later := range segs[i+1:] {
			if err := os.Remove(filepath.Join(j.dir, segName(later))); err != nil {
				return fmt.Errorf("durable: drop post-corruption segment: %w", err)
			}
		}
		return nil
	}
	return nil
}

// Replay streams every surviving record, oldest first, to fn. It must be
// called before the first Append of this process (recovery order: read
// your state back, then start writing). A non-nil error from fn aborts
// the replay.
func (j *Journal) Replay(fn func(payload []byte) error) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.appended {
		return errors.New("durable: Replay after Append")
	}
	segs, err := j.segments()
	if err != nil {
		return err
	}
	for _, idx := range segs {
		_, _, err := scanSegmentFile(filepath.Join(j.dir, segName(idx)), maxRecordBytes, func(p []byte) error {
			mReplayed.Inc()
			return fn(p)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// scanSegmentFile opens and scans one segment; see scanSegment.
func scanSegmentFile(path string, maxRecord int, fn func([]byte) error) (valid int64, clean bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, false, fmt.Errorf("durable: open segment: %w", err)
	}
	defer f.Close()
	return scanSegment(f, maxRecord, fn)
}

// scanSegment reads a segment stream, invoking fn (when non-nil) for each
// record whose checksum passes. It returns the offset just past the last
// valid record and whether the segment ended cleanly at a record
// boundary; clean=false marks a torn or corrupt tail starting at offset
// valid. fn errors abort the scan and are returned verbatim; corruption
// is not an error — it is the condition replay exists to absorb.
//
// Exposed (rather than kept private) so the fuzzer can drive the exact
// parser the recovery path uses.
func scanSegment(r io.Reader, maxRecord int, fn func([]byte) error) (valid int64, clean bool, err error) {
	magic := make([]byte, len(segMagic))
	if _, err := io.ReadFull(r, magic); err != nil {
		return 0, false, nil // too short for a header: whole file is torn
	}
	if string(magic) != string(segMagic) {
		return 0, false, nil
	}
	valid = int64(len(segMagic))
	hdr := make([]byte, recHeaderBytes)
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr); err != nil {
			// EOF exactly at a boundary is a clean end; a partial header is
			// a torn write.
			return valid, err == io.EOF, nil
		}
		n := binary.LittleEndian.Uint32(hdr[0:4])
		crc := binary.LittleEndian.Uint32(hdr[4:8])
		if n == 0 || n > uint32(maxRecord) {
			return valid, false, nil
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(r, payload); err != nil {
			return valid, false, nil // torn payload
		}
		if crc32.Checksum(payload, crcTable) != crc {
			return valid, false, nil // bit flip
		}
		valid += recHeaderBytes + int64(n)
		if fn != nil {
			if err := fn(payload); err != nil {
				return valid, false, err
			}
		}
	}
}

// openSegmentLocked creates and syncs a fresh segment (header included)
// and makes it current. Caller holds j.mu (or is inside Open).
func (j *Journal) openSegmentLocked(idx uint64) error {
	path := filepath.Join(j.dir, segName(idx))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("durable: create segment: %w", err)
	}
	if _, err := f.Write(segMagic); err != nil {
		f.Close()
		return fmt.Errorf("durable: segment header: %w", err)
	}
	if j.opt.Fsync != FsyncNever {
		if err := f.Sync(); err != nil {
			f.Close()
			return fmt.Errorf("durable: segment header sync: %w", err)
		}
		// The new directory entry must survive too, or a crash strands
		// records in a file the next Open cannot find.
		if err := syncDir(j.dir); err != nil {
			f.Close()
			return err
		}
	}
	j.f, j.seg, j.size, j.pending = f, idx, int64(len(segMagic)), 0
	return nil
}

// Append writes one record. Under FsyncAlways the record is on stable
// storage when Append returns — that return is the acknowledgement the
// recovery invariants are stated in terms of.
func (j *Journal) Append(payload []byte) error {
	if len(payload) == 0 {
		return errors.New("durable: empty record")
	}
	if len(payload) > maxRecordBytes {
		return fmt.Errorf("durable: record %d bytes exceeds max %d", len(payload), maxRecordBytes)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("durable: journal closed")
	}
	rec := int64(recHeaderBytes + len(payload))
	if j.size+rec > j.opt.SegmentBytes && j.size > int64(len(segMagic)) {
		if err := j.rotateLocked(); err != nil {
			return err
		}
	}
	var hdr [recHeaderBytes]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(payload, crcTable))

	// Crash injection: a torn write is "some prefix of the record reached
	// the disk". Writing header + half the payload then dying models the
	// worst case the scanner must absorb.
	if crashArmed(CrashMidAppend, j.dir) {
		j.f.Write(hdr[:])
		j.f.Write(payload[:len(payload)/2])
		j.f.Sync()
		crash(CrashMidAppend, j.dir)
	}
	if _, err := j.f.Write(hdr[:]); err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	if _, err := j.f.Write(payload); err != nil {
		return fmt.Errorf("durable: append: %w", err)
	}
	j.size += rec
	j.appended = true
	j.pending++
	mAppends.Inc()
	crash(CrashPreSync, j.dir) // full write in the page cache, not yet stable
	switch j.opt.Fsync {
	case FsyncAlways:
		if err := j.syncLocked(); err != nil {
			return err
		}
	case FsyncBatch:
		if j.pending >= j.opt.BatchAppends {
			if err := j.syncLocked(); err != nil {
				return err
			}
		}
	}
	crash(CrashPostSync, j.dir) // durable; the ack must survive from here on
	return nil
}

// Sync flushes outstanding appends to stable storage regardless of
// policy.
func (j *Journal) Sync() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return errors.New("durable: journal closed")
	}
	return j.syncLocked()
}

func (j *Journal) syncLocked() error {
	if j.opt.Fsync == FsyncNever {
		j.pending = 0
		return nil
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("durable: sync: %w", err)
	}
	j.pending = 0
	mSyncs.Inc()
	return nil
}

// Rotate seals the current segment (with a final sync) and opens the
// next. It returns the index of the new current segment; everything
// strictly before it is immutable and may be dropped once a checkpoint
// covers it.
func (j *Journal) Rotate() (uint64, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return 0, errors.New("durable: journal closed")
	}
	if err := j.rotateLocked(); err != nil {
		return 0, err
	}
	return j.seg, nil
}

func (j *Journal) rotateLocked() error {
	if err := j.syncLocked(); err != nil {
		return err
	}
	if err := j.f.Close(); err != nil {
		return fmt.Errorf("durable: close segment: %w", err)
	}
	mRotations.Inc()
	return j.openSegmentLocked(j.seg + 1)
}

// segment returns the index of the open segment.
func (j *Journal) segment() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.seg
}

// DropBefore removes sealed segments with index < seg — the compaction
// step after a checkpoint has captured their effects.
func (j *Journal) DropBefore(seg uint64) error {
	j.mu.Lock()
	cur := j.seg
	j.mu.Unlock()
	if seg > cur {
		seg = cur // never drop the open segment
	}
	segs, err := j.segments()
	if err != nil {
		return err
	}
	for _, idx := range segs {
		if idx >= seg {
			break
		}
		if err := os.Remove(filepath.Join(j.dir, segName(idx))); err != nil {
			return fmt.Errorf("durable: drop segment: %w", err)
		}
	}
	return nil
}

// Close syncs and closes the journal.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.closed {
		return nil
	}
	if err := j.syncLocked(); err != nil {
		return err
	}
	j.closed = true
	return j.f.Close()
}

// syncDir fsyncs a directory so renames and creations within it are
// durable (no-op on platforms where directories cannot be opened).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("durable: dir sync: %w", err)
	}
	return nil
}

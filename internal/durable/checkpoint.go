package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Atomic checkpoints: a full-state snapshot published through WriteFile,
// so a reader either sees the previous generation or the new one — never
// a half-written file. Generations are monotonic, and loading scans the
// *.ckpt files for the newest one that verifies.

// Checkpoint file layout:
//
//	8-byte magic "DCKP\x00\x00\x00\x01"
//	u64 generation (LE) | u32 CRC32C(payload) | u32 payload length | payload
var ckptMagic = []byte("DCKP\x00\x00\x00\x01")

// ErrNoCheckpoint is returned by Load when no valid checkpoint exists.
var ErrNoCheckpoint = errors.New("durable: no checkpoint")

// Checkpointer writes and reads generations of one named checkpoint
// family inside dir. Not safe for concurrent Write; recovery and the
// SIGHUP path both run on single goroutines.
type Checkpointer struct {
	dir  string
	name string
	gen  uint64 // highest generation seen or written
}

// ckptName formats a checkpoint file name.
func (c *Checkpointer) ckptName(gen uint64) string {
	return fmt.Sprintf("%s-%016x.ckpt", c.name, gen)
}

// parseGen extracts the generation from a checkpoint file name.
func (c *Checkpointer) parseGen(file string) (uint64, bool) {
	var gen uint64
	if _, err := fmt.Sscanf(file, c.name+"-%016x.ckpt", &gen); err != nil {
		return 0, false
	}
	return gen, true
}

// OpenCheckpointer scans dir for existing generations of name so the next
// Write continues the monotonic sequence.
func OpenCheckpointer(dir, name string) (*Checkpointer, error) {
	if name == "" || strings.ContainsAny(name, "/\\") {
		return nil, fmt.Errorf("durable: bad checkpoint name %q", name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durable: checkpoint dir: %w", err)
	}
	c := &Checkpointer{dir: dir, name: name}
	gens, err := c.generations()
	if err != nil {
		return nil, err
	}
	if len(gens) > 0 {
		c.gen = gens[len(gens)-1]
	}
	return c, nil
}

// generations lists on-disk generations, ascending.
func (c *Checkpointer) generations() ([]uint64, error) {
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, fmt.Errorf("durable: checkpoint dir: %w", err)
	}
	var out []uint64
	for _, e := range entries {
		if gen, ok := c.parseGen(e.Name()); ok && !e.IsDir() {
			out = append(out, gen)
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out, nil
}

// Write publishes payload as the next generation through WriteFile, then
// prunes older generations. The checkpoint is the unit of atomicity; a
// crash anywhere leaves either the old or the new generation loadable.
func (c *Checkpointer) Write(payload []byte) (uint64, error) {
	gen := c.gen + 1
	buf := make([]byte, 0, len(ckptMagic)+16+len(payload))
	buf = append(buf, ckptMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, gen)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)

	if err := WriteFile(filepath.Join(c.dir, c.ckptName(gen)), buf); err != nil {
		return 0, err
	}
	c.gen = gen
	mCheckpoints.Inc()
	// Keep the previous generation as a fallback; prune everything older.
	gens, err := c.generations()
	if err != nil {
		return 0, err
	}
	for _, g := range gens {
		if g+1 < gen {
			os.Remove(filepath.Join(c.dir, c.ckptName(g)))
		}
	}
	return gen, nil
}

// Load returns the newest generation whose checksum passes, walking
// backwards over surviving generations so one corrupt checkpoint file
// degrades to the previous snapshot instead of failing recovery.
func (c *Checkpointer) Load() ([]byte, uint64, error) {
	gens, err := c.generations()
	if err != nil {
		return nil, 0, err
	}
	for i := len(gens) - 1; i >= 0; i-- {
		payload, err := c.read(gens[i])
		if err == nil {
			return payload, gens[i], nil
		}
	}
	return nil, 0, ErrNoCheckpoint
}

// read loads and verifies one generation.
func (c *Checkpointer) read(gen uint64) ([]byte, error) {
	data, err := os.ReadFile(filepath.Join(c.dir, c.ckptName(gen)))
	if err != nil {
		return nil, err
	}
	hdrLen := len(ckptMagic) + 16
	if len(data) < hdrLen || string(data[:len(ckptMagic)]) != string(ckptMagic) {
		return nil, errors.New("durable: bad checkpoint header")
	}
	rest := data[len(ckptMagic):]
	fileGen := binary.LittleEndian.Uint64(rest[0:8])
	crc := binary.LittleEndian.Uint32(rest[8:12])
	n := binary.LittleEndian.Uint32(rest[12:16])
	payload := rest[16:]
	if fileGen != gen || uint32(len(payload)) != n || crc32.Checksum(payload, crcTable) != crc {
		return nil, errors.New("durable: checkpoint checksum mismatch")
	}
	return payload, nil
}

// WriteFile publishes data at path: it writes path+".tmp", fsyncs it,
// renames it over path and fsyncs the directory. A crash before the
// rename leaves the previous file, one after it the new one, and once
// WriteFile returns the new file survives a power loss. CrashPreRename
// and CrashPostRename fire here, scoped to path's directory.
func WriteFile(path string, data []byte) error {
	dir, tmp := filepath.Dir(path), path+".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("durable: write %s: %w", filepath.Base(tmp), err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return fmt.Errorf("durable: write %s: %w", filepath.Base(tmp), err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: sync %s: %w", filepath.Base(tmp), err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: write %s: %w", filepath.Base(tmp), err)
	}
	crash(CrashPreRename, dir) // temp durable, not yet published
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("durable: publish %s: %w", filepath.Base(path), err)
	}
	if err := syncDir(dir); err != nil {
		return err
	}
	crash(CrashPostRename, dir) // published; the caller's next step pending
	return nil
}

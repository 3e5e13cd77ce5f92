package durable

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// validSegment builds a well-formed segment holding the given payloads.
func validSegment(payloads ...[]byte) []byte {
	var buf bytes.Buffer
	buf.Write(segMagic)
	for _, p := range payloads {
		var hdr [recHeaderBytes]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(p)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.Checksum(p, crcTable))
		buf.Write(hdr[:])
		buf.Write(p)
	}
	return buf.Bytes()
}

// FuzzReplayJournal feeds arbitrary bytes — truncated, bit-flipped,
// interleaved with valid records — through the exact scanner the
// recovery path uses, and through a full Open/Replay over a segment
// file. Replay must never panic and never yield a record that fails its
// checksum, no matter what the disk holds.
func FuzzReplayJournal(f *testing.F) {
	f.Add([]byte{})
	f.Add(segMagic)
	f.Add(validSegment([]byte("hello"), []byte("world")))
	// Truncated mid-payload.
	whole := validSegment([]byte("truncated-record-payload"))
	f.Add(whole[:len(whole)-5])
	// Bit-flipped payload byte.
	flipped := validSegment([]byte("flip-me"))
	flipped[len(flipped)-2] ^= 0x10
	f.Add(flipped)
	// Valid record followed by garbage followed by a valid-looking one.
	f.Add(append(append(validSegment([]byte("ok")), 0xde, 0xad, 0xbe, 0xef), validSegment([]byte("after"))[8:]...))
	// Absurd length prefix.
	huge := append([]byte{}, segMagic...)
	huge = binary.LittleEndian.AppendUint32(huge, 0xffffffff)
	huge = binary.LittleEndian.AppendUint32(huge, 0)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, data []byte) {
		// 1. The raw scanner: every yielded record must pass its checksum
		//    (re-verified here independently), and valid must stay within
		//    the input.
		valid, clean, err := scanSegment(bytes.NewReader(data), 1<<20, func(p []byte) error {
			if len(p) == 0 {
				t.Fatal("scanner yielded an empty record")
			}
			return nil
		})
		if err != nil {
			t.Fatalf("scanner returned fn-less error: %v", err)
		}
		if valid < 0 || valid > int64(len(data)) {
			t.Fatalf("valid offset %d outside input of %d bytes", valid, len(data))
		}
		if clean && valid != int64(len(data)) && len(data) >= len(segMagic) && bytes.Equal(data[:len(segMagic)], segMagic) {
			t.Fatalf("clean scan stopped early: %d of %d", valid, len(data))
		}
		// Records up to `valid` must re-scan identically (determinism).
		revalid, reclean, _ := scanSegment(bytes.NewReader(data[:valid]), 1<<20, nil)
		if revalid != valid || (valid > int64(len(segMagic)) && !reclean) {
			t.Fatalf("truncated-at-valid rescan disagrees: %d/%v vs %d", revalid, reclean, valid)
		}

		// 2. Full journal recovery over the same bytes as segment 0: Open
		//    must repair, Replay must only yield checksum-clean records,
		//    and a post-recovery append/replay cycle must work.
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(dir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatalf("Open on fuzzed segment: %v", err)
		}
		count := 0
		if err := j.Replay(func(p []byte) error { count++; return nil }); err != nil {
			t.Fatalf("Replay: %v", err)
		}
		if err := j.Append([]byte("post-recovery")); err != nil {
			t.Fatalf("Append after recovery: %v", err)
		}
		j.Close()
		j2, err := Open(dir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		defer j2.Close()
		total := 0
		j2.Replay(func(p []byte) error { total++; return nil })
		if total != count+1 {
			t.Fatalf("post-recovery append lost: %d then %d", count, total)
		}
	})
}

package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func TestCheckpointRoundTripAndGenerations(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCheckpointer(dir, "registry")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Load(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint, got %v", err)
	}
	var lastGen uint64
	for i := 1; i <= 3; i++ {
		gen, err := c.Write([]byte(fmt.Sprintf("state-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if gen <= lastGen {
			t.Fatalf("generation not monotonic: %d after %d", gen, lastGen)
		}
		lastGen = gen
	}
	// On disk: the newest generation and its fallback, nothing else.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 2 || filepath.Ext(names[0]) != ".ckpt" || filepath.Ext(names[1]) != ".ckpt" {
		t.Fatalf("checkpoint dir holds %v, want two .ckpt generations", names)
	}
	// A fresh checkpointer must continue the sequence, not restart it.
	c2, err := OpenCheckpointer(dir, "registry")
	if err != nil {
		t.Fatal(err)
	}
	payload, gen, err := c2.Load()
	if err != nil || gen != lastGen || !bytes.Equal(payload, []byte("state-3")) {
		t.Fatalf("Load = %q gen %d err %v", payload, gen, err)
	}
	gen4, err := c2.Write([]byte("state-4"))
	if err != nil || gen4 != lastGen+1 {
		t.Fatalf("restart broke monotonic generations: %d, %v", gen4, err)
	}
}

func TestCheckpointCrashPreRenameKeepsOldGeneration(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCheckpointer(dir, "reg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("old")); err != nil {
		t.Fatal(err)
	}
	SetCrashPoint(CrashPreRename)
	defer ClearCrashPoint()
	crashed := false
	func() {
		defer RecoverCrash(&crashed)
		c.Write([]byte("new"))
	}()
	if !crashed {
		t.Fatal("crash point did not fire")
	}
	c2, err := OpenCheckpointer(dir, "reg")
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := c2.Load()
	if err != nil || string(payload) != "old" {
		t.Fatalf("pre-rename crash must keep old state; got %q, %v", payload, err)
	}
}

func TestCheckpointCrashPostRenameServesNewGeneration(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCheckpointer(dir, "reg")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write([]byte("old")); err != nil {
		t.Fatal(err)
	}
	SetCrashPoint(CrashPostRename)
	defer ClearCrashPoint()
	crashed := false
	func() {
		defer RecoverCrash(&crashed)
		c.Write([]byte("new"))
	}()
	if !crashed {
		t.Fatal("crash point did not fire")
	}
	// Rename happened: the new generation is published even though the
	// manifest update and pruning died.
	c2, err := OpenCheckpointer(dir, "reg")
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := c2.Load()
	if err != nil || string(payload) != "new" {
		t.Fatalf("post-rename crash must serve new state; got %q, %v", payload, err)
	}
}

func TestCheckpointCorruptLatestFallsBack(t *testing.T) {
	dir := t.TempDir()
	c, err := OpenCheckpointer(dir, "reg")
	if err != nil {
		t.Fatal(err)
	}
	c.Write([]byte("good"))
	gen2, err := c.Write([]byte("bad-to-be"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, c.ckptName(gen2))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	payload, gen, err := c.Load()
	if err != nil || string(payload) != "good" || gen >= gen2 {
		t.Fatalf("want fallback to gen<%d 'good', got %q gen %d err %v", gen2, payload, gen, err)
	}
}

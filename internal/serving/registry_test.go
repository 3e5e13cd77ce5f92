package serving

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diagnet/internal/core"
)

func TestRegistryAddRejectsDuplicatesAndEmpty(t *testing.T) {
	m, _ := fixture(t)
	r := NewRegistry(1)
	if err := r.AddModel("", m); err == nil {
		t.Fatal("empty version name accepted")
	}
	if err := r.AddModel("v1", m); err != nil {
		t.Fatal(err)
	}
	if err := r.AddModel("v1", m); err == nil {
		t.Fatal("duplicate version accepted; versions must be immutable")
	}
	if err := r.Add("v2", nil); err == nil {
		t.Fatal("nil bundle accepted")
	}
}

func TestRegistryPromoteAndRollbackWalkHistory(t *testing.T) {
	m, _ := fixture(t)
	r := NewRegistry(2)
	if err := r.Promote("ghost"); err == nil {
		t.Fatal("promoted an unregistered version")
	}
	for _, v := range []string{"v1", "v2", "v3"} {
		if err := r.AddModel(v, m); err != nil {
			t.Fatal(err)
		}
		if err := r.Promote(v); err != nil {
			t.Fatal(err)
		}
		if got := r.Active(); got != v {
			t.Fatalf("active %q after promoting %q", got, v)
		}
	}
	// Repeated rollbacks walk back through the promotion history.
	if v, err := r.Rollback(); err != nil || v != "v2" {
		t.Fatalf("rollback -> %q, %v; want v2", v, err)
	}
	if v, err := r.Rollback(); err != nil || v != "v1" {
		t.Fatalf("second rollback -> %q, %v; want v1", v, err)
	}
	if _, err := r.Rollback(); err == nil {
		t.Fatal("rollback past the first promotion succeeded")
	}
	if got := r.Active(); got != "v1" {
		t.Fatalf("active %q after exhausting history", got)
	}
}

func TestRegistryLoadDir(t *testing.T) {
	m, _ := fixture(t)
	dir := t.TempDir()
	for _, name := range []string{"v2.gob", "v1.gob"} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Save(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	// A bundle file loads through the same path.
	bf, err := os.Create(filepath.Join(dir, "v3-bundle.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.NewBundle(m).Save(bf); err != nil {
		t.Fatal(err)
	}
	bf.Close()
	// Non-gob files are ignored.
	os.WriteFile(filepath.Join(dir, "README.txt"), []byte("x"), 0o644)

	r := NewRegistry(1)
	versions, err := r.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"v1", "v2", "v3-bundle"}
	if strings.Join(versions, ",") != strings.Join(want, ",") {
		t.Fatalf("versions %v, want %v", versions, want)
	}
	if r.Active() != "" {
		t.Fatal("LoadDir must not promote anything")
	}
	if err := r.Promote("v3-bundle"); err != nil {
		t.Fatal(err)
	}
	if b, name, err := r.ActiveBundle(); err != nil || name != "v3-bundle" || b.General == nil {
		t.Fatalf("active bundle %q, %v", name, err)
	}
}

func TestRegistryLoadFileRejectsGarbage(t *testing.T) {
	r := NewRegistry(1)
	path := filepath.Join(t.TempDir(), "junk.gob")
	os.WriteFile(path, []byte("not a gob stream"), 0o644)
	if err := r.LoadFile("junk", path); err == nil {
		t.Fatal("garbage file registered as a model")
	}
	if err := r.LoadFile("missing", filepath.Join(t.TempDir(), "nope.gob")); err == nil {
		t.Fatal("missing file registered as a model")
	}
}

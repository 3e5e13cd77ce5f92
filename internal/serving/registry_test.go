package serving

import (
	"bytes"
	"fmt"
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
	for _, name := range []string{"v2.gob", "v1.gob", "v3-bundle.gob"} {
		f, err := os.Create(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := core.NewBundle(m).Save(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
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

// A bundle that LoadBundle refuses is reported with its path and the
// decoder's own reason: here a specialized head whose first parameter has
// 3 values.
func TestRegistryLoadFileNamesWhyABundleWasRefused(t *testing.T) {
	m, test := fixture(t)
	svc := test.Degraded().Samples[0].Service
	spec := m.Specialize(test, svc).Model
	head := spec.Net.Params()[4].Value
	head.Data = head.Data[:3]
	b := core.NewBundle(m)
	b.Specialized[svc] = spec
	var blob bytes.Buffer
	if err := b.Save(&blob); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "short-head.gob")
	if err := os.WriteFile(path, blob.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	err := NewRegistry(1).LoadFile("short-head", path)
	if err == nil {
		t.Fatal("a bundle with a short head registered")
	}
	for _, want := range []string{path, fmt.Sprintf("service %d", svc), "head param 0 has 3 values"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("LoadFile error %q does not name %q", err, want)
		}
	}
}

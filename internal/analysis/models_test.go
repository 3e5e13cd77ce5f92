package analysis

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"diagnet/internal/core"
)

func postModels(t *testing.T, url string, act ModelAction) (*http.Response, ModelActionResult) {
	t.Helper()
	body, err := json.Marshal(act)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/models", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res ModelActionResult
	json.NewDecoder(resp.Body).Decode(&res)
	return resp, res
}

// TestModelsEndpointLifecycle drives a whole rollout over HTTP: list the
// boot version, load a new one from the model dir, promote it, diagnose on
// it, then roll back.
func TestModelsEndpointLifecycle(t *testing.T) {
	srv, ts := newService(t)
	m, _ := fixture(t)

	dir := t.TempDir()
	srv.ModelDir = dir
	f, err := os.Create(filepath.Join(dir, "v2.gob"))
	if err != nil {
		t.Fatal(err)
	}
	if err := core.NewBundle(m).Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Baseline: the boot version is listed and active.
	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var list ModelsResponse
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if list.Active != "boot" || len(list.Versions) != 1 || !list.Versions[0].Active {
		t.Fatalf("baseline listing %+v", list)
	}

	// Load + promote + verify provenance of a served diagnosis.
	if r, res := postModels(t, ts.URL, ModelAction{Action: "load", File: "v2.gob"}); r.StatusCode != http.StatusOK || !res.OK {
		t.Fatalf("load: status %d, %+v", r.StatusCode, res)
	}
	if r, res := postModels(t, ts.URL, ModelAction{Action: "promote", Version: "v2"}); r.StatusCode != http.StatusOK || res.Active != "v2" {
		t.Fatalf("promote: status %d, %+v", r.StatusCode, res)
	}
	diag, err := srv.Diagnose(sampleRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if diag.ModelVersion != "v2" {
		t.Fatalf("diagnosis attributed to %q, want v2", diag.ModelVersion)
	}

	// Rollback returns to boot.
	if r, res := postModels(t, ts.URL, ModelAction{Action: "rollback"}); r.StatusCode != http.StatusOK || res.Active != "boot" {
		t.Fatalf("rollback: status %d, %+v", r.StatusCode, res)
	}
}

func TestModelsEndpointRejectsBadActions(t *testing.T) {
	srv, ts := newService(t)

	// Loading is disabled without a configured model dir.
	if r, _ := postModels(t, ts.URL, ModelAction{Action: "load", File: "x.gob"}); r.StatusCode != http.StatusForbidden {
		t.Fatalf("load without model dir: status %d, want 403", r.StatusCode)
	}
	srv.ModelDir = t.TempDir()
	// Path traversal and absolute paths are rejected.
	for _, file := range []string{"../evil.gob", "/etc/passwd", ".hidden.gob", ""} {
		if r, _ := postModels(t, ts.URL, ModelAction{Action: "load", File: file}); r.StatusCode != http.StatusBadRequest {
			t.Fatalf("load %q: status %d, want 400", file, r.StatusCode)
		}
	}
	if r, _ := postModels(t, ts.URL, ModelAction{Action: "promote", Version: "ghost"}); r.StatusCode != http.StatusBadRequest {
		t.Fatal("promoting an unknown version must 400")
	}
	if r, _ := postModels(t, ts.URL, ModelAction{Action: "promote"}); r.StatusCode != http.StatusBadRequest {
		t.Fatal("promote without a version must 400")
	}
	if r, _ := postModels(t, ts.URL, ModelAction{Action: "rollback"}); r.StatusCode != http.StatusBadRequest {
		t.Fatal("rollback with no history must 400")
	}
	if r, _ := postModels(t, ts.URL, ModelAction{Action: "frobnicate"}); r.StatusCode != http.StatusBadRequest {
		t.Fatal("unknown action must 400")
	}
	// Method checks.
	resp, err := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models", strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	r, err := http.DefaultClient.Do(resp)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE status %d", r.StatusCode)
	}
}

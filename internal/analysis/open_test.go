package analysis

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"diagnet/internal/continual"
	"diagnet/internal/core"
	"diagnet/internal/durable"
	"diagnet/internal/leakcheck"
)

// openOptions is a journal-backed replica over the package fixture.
func openOptions(t *testing.T, stateDir string) Options {
	t.Helper()
	m, _ := fixture(t)
	return Options{Bundle: core.NewBundle(m), StateDir: stateDir, Fsync: durable.FsyncNever}
}

// TestOpenRecoversBeforeReady pins the boot order: a promotion journaled by
// one incarnation is what the next one serves by the time Open returns —
// ready, with the recovered version active, before any listener exists.
// It also pins Close as idempotent.
func TestOpenRecoversBeforeReady(t *testing.T) {
	dir := t.TempDir()
	m, _ := fixture(t)

	s, err := Open(openOptions(t, dir))
	if err != nil {
		t.Fatal(err)
	}
	reg := s.Engine().Registry()
	if got := reg.Active(); got != "boot" || !s.Ready() {
		t.Fatalf("fresh state dir: active %q ready %v, want boot, true", got, s.Ready())
	}
	if err := reg.AddModel("v2", m); err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote("v2"); err != nil {
		t.Fatal(err)
	}
	if gen, err := s.Checkpoint(); err != nil || gen == 0 {
		t.Fatalf("Checkpoint = %d, %v", gen, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Ready() {
		t.Fatal("ready after Close")
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	// Versions are re-registered from their files at boot; recovery only
	// re-promotes. A model dir holding boot and v2 stands in for them.
	models := t.TempDir()
	for _, name := range []string{"boot.gob", "v2.gob"} {
		f, err := os.Create(filepath.Join(models, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := core.NewBundle(m).Save(f); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	opt := openOptions(t, dir)
	opt.Bundle, opt.ModelDir, opt.ServeVersion = nil, models, "boot"
	s, err = Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got := s.Engine().Registry().Active(); got != "v2" || !s.Ready() {
		t.Fatalf("after restart: active %q ready %v, want the recovered v2 (not -serve-version), true", got, s.Ready())
	}
	resp, err := s.Diagnose(sampleRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if resp.ModelVersion != "v2" {
		t.Fatalf("first diagnosis served by %q, want v2", resp.ModelVersion)
	}
}

// TestOpenFailureReleasesEverything: an Open that fails at any step hands
// back no Server and leaves nothing behind — no goroutine (the package's
// leakcheck TestMain would also catch one), no open journal descriptor.
func TestOpenFailureReleasesEverything(t *testing.T) {
	// A CRC-valid record that is not a sample: the store's replay rejects it.
	corruptSamples := func(t *testing.T, stateDir string) {
		jn, err := durable.Open(filepath.Join(stateDir, "continual", "samples"), durable.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if err := jn.Append([]byte("not json")); err != nil {
			t.Fatal(err)
		}
		jn.Close()
	}
	cases := map[string]func(t *testing.T, opt *Options){
		"unreadable model dir": func(t *testing.T, opt *Options) {
			opt.Bundle, opt.ModelDir = nil, filepath.Join(t.TempDir(), "missing")
		},
		"empty model dir": func(t *testing.T, opt *Options) {
			opt.Bundle, opt.ModelDir = nil, t.TempDir()
		},
		"state dir is a file": func(t *testing.T, opt *Options) {
			opt.StateDir = filepath.Join(t.TempDir(), "state")
			if err := os.WriteFile(opt.StateDir, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"corrupt sample journal": func(t *testing.T, opt *Options) {
			opt.Continual = true
			corruptSamples(t, opt.StateDir)
		},
		"continual dir not writable": func(t *testing.T, opt *Options) {
			opt.Continual = true
			// A file where the directory must go fails for root too, which a
			// read-only mode bit does not.
			if err := os.WriteFile(filepath.Join(opt.StateDir, "continual"), nil, 0o444); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, breakIt := range cases {
		t.Run(name, func(t *testing.T) {
			opt := openOptions(t, t.TempDir())
			breakIt(t, &opt)
			fds := leakcheck.CountFDs()
			s, err := Open(opt)
			if err == nil {
				s.Close()
				t.Fatal("Open succeeded")
			}
			if s != nil {
				t.Fatal("failed Open returned a Server")
			}
			leakcheck.VerifyNone(t)
			if got := leakcheck.CountFDs(); got > fds {
				t.Fatalf("%d descriptors open after the failed Open, %d before", got, fds)
			}
		})
	}
}

// TestOpenContinualTapsServing covers what no harness exercised before the
// soak ran Open: with Options.Continual, every served diagnosis reaches the
// controller and the /v1/continual surface is live.
func TestOpenContinualTapsServing(t *testing.T) {
	opt := openOptions(t, t.TempDir())
	opt.Continual = true
	opt.Loop.TrainFunc = func(context.Context) (*continual.TrainOutcome, error) {
		return nil, errors.New("stub trainer")
	}
	s, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	body, err := json.Marshal(sampleRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	for want := int64(1); want <= 3; want++ {
		postOK(t, ts.URL+"/v1/diagnose", body)
		if got := s.Continual().Status().StoreSeen; got != want {
			t.Fatalf("store_seen = %d after %d served diagnoses", got, want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/continual")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st continual.Status
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&st) != nil || st.StoreSeen != 3 {
		t.Fatalf("GET /v1/continual: status %d, store_seen %d; want 200, 3", resp.StatusCode, st.StoreSeen)
	}
}

// TestOpenVetsCandidateOnServedTraffic: on a replica booted by Open, the
// requests its handlers answer are what a shadowing candidate is vetted
// on. A cycle is triggered over HTTP, then diagnoses are POSTed until the
// candidate is promoted; its shadow evidence is those requests, replayed
// through it and the incumbent.
func TestOpenVetsCandidateOnServedTraffic(t *testing.T) {
	m, _ := fixture(t)
	opt := openOptions(t, t.TempDir())
	opt.Continual = true
	opt.Loop = continual.Config{
		Gate: continual.GateConfig{MinShadowSamples: 4, MaxPSI: 100, MaxLatencyRatio: 100},
		TrainFunc: func(context.Context) (*continual.TrainOutcome, error) {
			return &continual.TrainOutcome{Bundle: core.NewBundle(m), Epochs: 1}, nil
		},
		CheckInterval: 5 * time.Millisecond,
	}
	s, err := Open(opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("Close: %v", err)
		}
	}()

	resp, err := http.Post(ts.URL+"/v1/continual/retrain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("retrain trigger: status %d, want 202", resp.StatusCode)
	}
	body, err := json.Marshal(sampleRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	ctrl := s.Continual()
	for deadline := time.Now().Add(20 * time.Second); ctrl.State() != continual.StatePromoting; {
		if time.Now().After(deadline) {
			t.Fatalf("candidate never promoted: %+v", ctrl.Status())
		}
		postOK(t, ts.URL+"/v1/diagnose", body)
	}
	// The candidate is the incumbent's model: it agrees on every request.
	if sh := ctrl.Status().LastShadow; sh == nil || sh.Samples < 4 || sh.AgreeRate != 1 {
		t.Fatalf("shadow evidence %+v, want ≥ 4 served requests, all agreeing", sh)
	}
	if got := s.Engine().Registry().Active(); got != "retrain-000001" {
		t.Fatalf("active version %q after promotion", got)
	}
}

func postOK(t *testing.T, url string, body []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d", url, resp.StatusCode)
	}
}

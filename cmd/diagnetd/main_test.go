package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"diagnet/internal/analysis"
	"diagnet/internal/core"
	"diagnet/internal/dataset"
	"diagnet/internal/forest"
	"diagnet/internal/leakcheck"
	"diagnet/internal/netsim"
)

// TestMain fails the package if run leaves a goroutine behind.
func TestMain(m *testing.M) { leakcheck.VerifyTestMain(m) }

// TestRunServesAndDrains is the daemon end to end: flags in, one
// diagnosis served over a real listener from a journal-backed,
// continual-enabled replica, then a clean drain (nil) on cancellation.
// With -pprof the profiling listener serves too and is shut down and
// awaited with the API listener: TestMain fails a run that strands it.
func TestRunServesAndDrains(t *testing.T) {
	w := netsim.NewWorld(netsim.Config{Seed: 1})
	d := dataset.Generate(dataset.GenConfig{World: w, NominalSamples: 150, FaultSamples: 400, Seed: 21})
	train, test := d.Split(0.8, netsim.HiddenLandmarks(), 23)
	cfg := core.DefaultConfig()
	cfg.Filters = 4
	cfg.Hidden = []int{16, 8}
	cfg.Epochs = 2
	cfg.Forest = forest.Config{Trees: 5, Tree: forest.TreeConfig{MaxDepth: 4}}
	known := []int{netsim.BEAU, netsim.AMST, netsim.SING, netsim.LOND, netsim.FRNK, netsim.TOKY, netsim.SYDN}
	model := core.TrainGeneral(train, known, cfg).Model

	modelPath := filepath.Join(t.TempDir(), "model.gob")
	f, err := os.Create(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := core.NewBundle(model).Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	s := &test.Degraded().Samples[0]
	body, err := json.Marshal(analysis.DiagnoseRequest{
		ServiceID: s.Service, Landmarks: test.Layout.Landmarks, Features: s.Features,
	})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("api only", func(t *testing.T) { serveAndDrain(t, modelPath, body, "") })
	t.Run("with pprof", func(t *testing.T) { serveAndDrain(t, modelPath, body, freeAddr(t)) })

	if err := run(context.Background(), []string{"-model", modelPath, "-fsync", "sometimes"}); err == nil {
		t.Fatal("run accepted -fsync sometimes without -state-dir")
	}
}

// serveAndDrain runs the daemon until it is ready, serves one diagnosis
// (and, when pprofAddr is set, one heap profile), cancels it and requires
// a clean return with both listeners closed.
func serveAndDrain(t *testing.T, modelPath string, body []byte, pprofAddr string) {
	addr := freeAddr(t)
	args := []string{
		"-addr", addr, "-model", modelPath,
		"-state-dir", filepath.Join(t.TempDir(), "state"), "-fsync", "never", "-continual",
	}
	if pprofAddr != "" {
		args = append(args, "-pprof", pprofAddr)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- run(ctx, args) }()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusNoContent {
				break
			}
		}
		select {
		case err := <-done:
			t.Fatalf("run returned before serving: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("not ready after 10s (last error: %v)", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	resp, err := http.Post("http://"+addr+"/v1/diagnose", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out analysis.DiagnoseResponse
	err = json.NewDecoder(resp.Body).Decode(&out)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil || out.ModelVersion != "boot" || len(out.Causes) == 0 {
		t.Fatalf("POST /v1/diagnose: status %d, decode %v, response %+v", resp.StatusCode, err, out)
	}
	if pprofAddr != "" {
		resp, err := http.Get("http://" + pprofAddr + "/debug/pprof/heap")
		if err != nil {
			t.Fatal(err)
		}
		heap, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil || len(heap) == 0 {
			t.Fatalf("GET /debug/pprof/heap: status %d, %d bytes, %v", resp.StatusCode, len(heap), err)
		}
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after cancel: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run did not return after cancel")
	}
	for _, a := range []string{addr, pprofAddr} {
		if a == "" {
			continue
		}
		if c, err := net.Dial("tcp", a); err == nil {
			c.Close()
			t.Errorf("%s still accepts connections after run returned", a)
		}
	}
}

// freeAddr reserves a loopback port: run binds its listeners itself.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

package analysis

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"diagnet/internal/core"
	"diagnet/internal/dataset"
	"diagnet/internal/forest"
	"diagnet/internal/netsim"
)

var (
	fixtureOnce sync.Once
	fixModel    *core.Model
	fixTest     *dataset.Dataset
)

// fixture trains one tiny model for the whole test package.
func fixture(t *testing.T) (*core.Model, *dataset.Dataset) {
	t.Helper()
	return buildFixture()
}

// buildFixture is fixture without a testing.T, usable from fuzz targets.
func buildFixture() (*core.Model, *dataset.Dataset) {
	fixtureOnce.Do(func() {
		w := netsim.NewWorld(netsim.Config{Seed: 1})
		d := dataset.Generate(dataset.GenConfig{
			World:          w,
			NominalSamples: 300,
			FaultSamples:   800,
			Seed:           21,
		})
		train, test := d.Split(0.8, netsim.HiddenLandmarks(), 23)
		cfg := core.DefaultConfig()
		cfg.Filters = 6
		cfg.Hidden = []int{24, 12}
		cfg.Epochs = 6
		cfg.Forest = forest.Config{Trees: 10, Tree: forest.TreeConfig{MaxDepth: 6}}
		known := []int{netsim.BEAU, netsim.AMST, netsim.SING, netsim.LOND, netsim.FRNK, netsim.TOKY, netsim.SYDN}
		fixModel = core.TrainGeneral(train, known, cfg).Model
		fixTest = test
	})
	return fixModel, fixTest
}

func newService(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	m, _ := fixture(t)
	s := NewServer(m)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		if err := s.Close(); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

// promoteHead registers and promotes a version whose bundle carries the
// fixture model as service svc's head: the same weights, so only routing
// tells the head from the general model.
func promoteHead(t *testing.T, srv *Server, svc int) {
	t.Helper()
	m, _ := fixture(t)
	b := core.NewBundle(m)
	b.Attach(svc, m)
	reg := srv.Engine().Registry()
	if err := reg.Add("with-head", b); err != nil {
		t.Fatal(err)
	}
	if err := reg.Promote("with-head"); err != nil {
		t.Fatal(err)
	}
}

func sampleRequest(t *testing.T) *DiagnoseRequest {
	t.Helper()
	_, test := fixture(t)
	deg := test.Degraded()
	if deg.Len() == 0 {
		t.Fatal("no degraded samples")
	}
	s := &deg.Samples[0]
	return &DiagnoseRequest{
		ServiceID: s.Service,
		Landmarks: test.Layout.Landmarks,
		Features:  s.Features,
	}
}

func TestDiagnoseOverHTTP(t *testing.T) {
	_, ts := newService(t)
	client := NewClient(ts.URL)
	resp, err := client.Diagnose(context.Background(), sampleRequest(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Causes) != 5 {
		t.Fatalf("%d causes, want 5", len(resp.Causes))
	}
	for i := 1; i < len(resp.Causes); i++ {
		if resp.Causes[i].Score > resp.Causes[i-1].Score {
			t.Fatal("causes not sorted by score")
		}
	}
	if resp.Causes[0].Name == "" || resp.Causes[0].Family == "" {
		t.Fatal("cause names missing")
	}
	if resp.ModelService != -1 {
		t.Fatal("no specialized model registered; expected general fallback")
	}
	if len(resp.Coarse) != 7 {
		t.Fatalf("coarse has %d classes", len(resp.Coarse))
	}
}

func TestDiagnoseUsesSpecializedModel(t *testing.T) {
	srv, ts := newService(t)
	req := sampleRequest(t)
	promoteHead(t, srv, req.ServiceID)
	client := NewClient(ts.URL)
	resp, err := client.Diagnose(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.ModelService != req.ServiceID {
		t.Fatalf("served by model %d, want %d", resp.ModelService, req.ServiceID)
	}
}

func TestDiagnoseTopK(t *testing.T) {
	srv, _ := newService(t)
	req := sampleRequest(t)
	req.TopK = 3
	resp, err := srv.Diagnose(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Causes) != 3 {
		t.Fatalf("%d causes", len(resp.Causes))
	}
	// TopK larger than the feature space is clamped.
	req.TopK = 10000
	resp, err = srv.Diagnose(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Causes) != len(req.Features) {
		t.Fatalf("%d causes, want %d", len(resp.Causes), len(req.Features))
	}
}

func TestDiagnoseValidation(t *testing.T) {
	srv, ts := newService(t)
	// Mismatched feature count.
	if _, err := srv.Diagnose(&DiagnoseRequest{Landmarks: []int{0, 1}, Features: []float64{1}}); err == nil {
		t.Fatal("want feature-count error")
	}
	// No landmarks.
	if _, err := srv.Diagnose(&DiagnoseRequest{Features: make([]float64, 5)}); err == nil {
		t.Fatal("want no-landmark error")
	}
	// Bad JSON over HTTP.
	resp, err := http.Post(ts.URL+"/v1/diagnose", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d", resp.StatusCode)
	}
	// GET is rejected.
	resp, _ = http.Get(ts.URL + "/v1/diagnose")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
}

func TestModelInfoAndHealth(t *testing.T) {
	srv, ts := newService(t)
	promoteHead(t, srv, 3)
	client := NewClient(ts.URL)
	info, err := client.Model(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(info.KnownRegions) != 7 {
		t.Fatalf("known regions %v", info.KnownRegions)
	}
	if info.TotalParams == 0 {
		t.Fatal("no params reported")
	}
	if len(info.Specialized) != 1 || info.Specialized[0] != 3 {
		t.Fatalf("specialized %v", info.Specialized)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("health status %d", resp.StatusCode)
	}
}

// TestDriftEndpoint: the drift verdict belongs to the continual
// controller and is published as the drift.* metrics; the server has no
// drift route, so GET /v1/drift is the mux's own 404.
func TestDriftEndpoint(t *testing.T) {
	_, ts := newService(t)
	resp, err := http.Get(ts.URL + "/v1/drift")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || string(body) != "404 page not found\n" {
		t.Fatalf("GET /v1/drift = %d %q, want the mux's 404", resp.StatusCode, body)
	}
}

func TestDiagnoseBatch(t *testing.T) {
	_, ts := newService(t)
	client := NewClient(ts.URL)
	good := *sampleRequest(t)
	bad := DiagnoseRequest{Landmarks: []int{0}, Features: []float64{1}} // wrong width
	resp, err := client.DiagnoseBatch(context.Background(), []DiagnoseRequest{good, bad, good})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Responses) != 3 || len(resp.Errors) != 3 {
		t.Fatalf("batch shape %d/%d", len(resp.Responses), len(resp.Errors))
	}
	if resp.Responses[0] == nil || resp.Errors[0] != "" {
		t.Fatal("valid request failed in batch")
	}
	if resp.Responses[1] != nil || resp.Errors[1] == "" {
		t.Fatal("invalid request not reported")
	}
	if resp.Responses[2] == nil {
		t.Fatal("batch stopped after an error")
	}
	// Batch and single answers agree.
	single, err := client.Diagnose(context.Background(), &good)
	if err != nil {
		t.Fatal(err)
	}
	if single.Causes[0].Feature != resp.Responses[0].Causes[0].Feature {
		t.Fatal("batch diverges from single diagnosis")
	}
}

func TestDiagnoseBatchValidation(t *testing.T) {
	_, ts := newService(t)
	// Empty batch rejected.
	resp, err := http.Post(ts.URL+"/v1/diagnose-batch", "application/json", strings.NewReader(`{"requests":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch status %d", resp.StatusCode)
	}
	// GET rejected.
	resp, _ = http.Get(ts.URL + "/v1/diagnose-batch")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status %d", resp.StatusCode)
	}
}

// TestNonFiniteDiagnosisRefused: every feature at 1e300 overflows the
// network into NaN probabilities, which JSON cannot carry. The diagnosis
// is refused — a 400 alone, its own error slot in a batch whose other rows
// are answered — where it was a 200 with an empty body, and the continual
// plane never sees it.
func TestNonFiniteDiagnosisRefused(t *testing.T) {
	_, url, _, store := newContinualService(t)
	good := *sampleRequest(t)
	extreme := good
	extreme.Features = make([]float64, len(good.Features))
	for i := range extreme.Features {
		extreme.Features[i] = 1e300
	}

	payload, _ := json.Marshal(extreme)
	status, body := post(t, url+"/v1/diagnose", payload)
	if status != http.StatusBadRequest || !strings.Contains(string(body), "not finite") {
		t.Fatalf("extreme row: status %d, body %q; want 400 naming the non-finite diagnosis", status, body)
	}

	batch := BatchRequest{Requests: make([]DiagnoseRequest, 9)}
	for i := range batch.Requests {
		batch.Requests[i] = good
	}
	batch.Requests[4] = extreme
	payload, _ = json.Marshal(batch)
	status, body = post(t, url+"/v1/diagnose-batch", payload)
	var resp BatchResponse
	if err := json.Unmarshal(body, &resp); status != http.StatusOK || err != nil {
		t.Fatalf("batch: status %d, decode error %v, body %q", status, err, body)
	}
	for i := range batch.Requests {
		if refused := i == 4; (resp.Responses[i] == nil) != refused || (resp.Errors[i] != "") != refused {
			t.Errorf("slot %d: response %v, error %q", i, resp.Responses[i] != nil, resp.Errors[i])
		}
	}
	if n := store.Len(); n != 8 {
		t.Errorf("continual store holds %d samples, want the 8 finite diagnoses", n)
	}
}

func post(t *testing.T, url string, payload []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestConcurrentDiagnoses(t *testing.T) {
	srv, _ := newService(t)
	req := sampleRequest(t)
	base, err := srv.Diagnose(req)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := srv.Diagnose(req)
			if err != nil {
				errs <- err
				return
			}
			if resp.Causes[0].Feature != base.Causes[0].Feature {
				errs <- contextErr{}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type contextErr struct{}

func (contextErr) Error() string { return "concurrent diagnosis diverged" }

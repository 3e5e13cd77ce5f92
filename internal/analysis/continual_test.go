package analysis

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"diagnet/internal/continual"
)

// newContinualService wires a memory-only controller into a test server.
// Its TrainFunc fails immediately — these tests exercise the HTTP surface
// and the serving-path tap, not the training loop (internal/continual's
// loop tests own that).
func newContinualService(t *testing.T) (*Server, string, *continual.Controller, *continual.SampleStore) {
	t.Helper()
	s, ts := newService(t)
	store, err := continual.OpenStore(continual.StoreConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	ctrl, err := continual.NewController(continual.Config{
		Engine: s.Engine(),
		Store:  store,
		TrainFunc: func(ctx context.Context) (*continual.TrainOutcome, error) {
			return nil, errors.New("stub trainer")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ctrl.Close() })
	s.attachContinual(ctrl)
	return s, ts.URL, ctrl, store
}

func TestContinualRoutesNotFoundWhenDisabled(t *testing.T) {
	_, ts := newService(t)
	for _, route := range []struct{ method, path string }{
		{http.MethodGet, "/v1/continual"},
		{http.MethodPost, "/v1/continual/retrain"},
		{http.MethodPost, "/v1/continual/samples"},
	} {
		req, err := http.NewRequest(route.method, ts.URL+route.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s %s without a controller: status %d, want 404", route.method, route.path, resp.StatusCode)
		}
	}
}

func TestContinualStatusAndRetrain(t *testing.T) {
	_, url, ctrl, _ := newContinualService(t)

	var st continual.Status
	resp, err := http.Get(url + "/v1/continual")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.State != continual.StateIdle {
		t.Fatalf("fresh loop state %q, want idle", st.State)
	}

	// The loop is not running yet: a trigger is a state conflict.
	resp, err = http.Post(url+"/v1/continual/retrain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("retrain on stopped loop: status %d, want 409", resp.StatusCode)
	}

	ctrl.Start()
	body := bytes.NewBufferString(`{"reason":"operator test"}`)
	resp, err = http.Post(url+"/v1/continual/retrain", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("retrain trigger: status %d, want 202", resp.StatusCode)
	}
}

func TestContinualFeedbackIngest(t *testing.T) {
	_, url, _, store := newContinualService(t)
	req := sampleRequest(t)

	good := continual.Sample{
		Service: req.ServiceID, Landmarks: req.Landmarks,
		Features: req.Features, Family: 1, Cause: -1,
	}
	bad := good
	bad.Features = good.Features[:3] // width mismatch
	payload, _ := json.Marshal(FeedbackRequest{Samples: []continual.Sample{good, bad}})

	resp, err := http.Post(url+"/v1/continual/samples", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var fb FeedbackResponse
	if err := json.NewDecoder(resp.Body).Decode(&fb); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if fb.Ingested != 1 || len(fb.Errors) != 1 {
		t.Fatalf("feedback result %+v, want 1 ingested + 1 error", fb)
	}
	// Feedback samples land labeled: only they may grade a candidate.
	if store.LabeledLen() != 1 {
		t.Fatalf("labeled samples %d, want 1", store.LabeledLen())
	}

	resp, err = http.Post(url+"/v1/continual/samples", "application/json", bytes.NewBufferString(`{"samples":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty feedback: status %d, want 400", resp.StatusCode)
	}
}

func TestDiagnoseTapFeedsSampleStore(t *testing.T) {
	_, url, _, store := newContinualService(t)
	req := sampleRequest(t)
	payload, _ := json.Marshal(req)

	resp, err := http.Post(url+"/v1/diagnose", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	var out DiagnoseResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diagnose: status %d", resp.StatusCode)
	}
	// The served request became a pseudo-labeled (unlabeled) buffer entry.
	if store.Len() != 1 {
		t.Fatalf("store holds %d samples after one diagnosis, want 1", store.Len())
	}
	if store.LabeledLen() != 0 {
		t.Fatalf("pseudo-labeled tap produced %d labeled samples, want 0", store.LabeledLen())
	}
}

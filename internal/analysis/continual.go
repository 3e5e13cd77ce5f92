// Continual-learning surface: the analysis server taps every served
// diagnosis into the continual controller (pseudo-labeled sample ingest,
// the drift trigger and regression-watchdog feed, and the requests a
// shadowing candidate is replayed on) and exposes the loop's control
// plane:
//
//	GET  /v1/continual          → continual.Status (state machine, last cycle)
//	POST /v1/continual/retrain  → trigger a retrain cycle now
//	POST /v1/continual/samples  → ingest ground-truth labeled feedback
//
// The routes answer 404 until attachContinual is called (daemon started
// without -continual).
package analysis

import (
	"fmt"
	"log/slog"
	"net/http"

	"diagnet/internal/continual"
	"diagnet/internal/core"
	"diagnet/internal/obs"
	"diagnet/internal/probe"
)

// attachContinual wires a continual-learning controller into the server:
// the /v1/continual routes come alive, and every successful diagnosis is
// tapped into the controller as a pseudo-labeled training sample plus a
// served request (feedContinual). Call before serving traffic.
func (s *Server) attachContinual(ctrl *continual.Controller) {
	s.loop.Store(ctrl)
}

// Continual returns the attached controller (nil when the continual plane
// is disabled).
func (s *Server) Continual() *continual.Controller {
	return s.loop.Load()
}

// feedContinual taps one served diagnosis into the continual plane. The
// request and its coarse distribution go to ObserveServing: the
// distribution feeds the drift trigger and the post-promotion regression
// watchdog, and while a candidate shadows, the request is what the
// controller replays through it and the incumbent. The raw request also
// becomes a pseudo-labeled sample in the live training buffer (Family =
// the served prediction, Cause unknown — ground truth arrives separately
// via POST /v1/continual/samples). Ingest failures are logged, never
// surfaced: the client's diagnosis already succeeded.
func (s *Server) feedContinual(ctrl *continual.Controller, req *DiagnoseRequest, layout probe.Layout, diag *core.Diagnosis) {
	ctrl.ObserveServing(core.Row{Service: req.ServiceID, Layout: layout, Features: req.Features}, diag.Coarse)
	err := ctrl.Ingest(continual.Sample{
		Service:   req.ServiceID,
		Landmarks: req.Landmarks,
		Features:  req.Features,
		Family:    int(diag.Family),
		Cause:     -1,
	})
	if err != nil {
		slog.Warn("analysis: continual sample ingest failed", "err", err)
	}
}

// continualCtl fetches the attached controller, answering 404 when the
// continual plane is not enabled on this daemon.
func (s *Server) continualCtl(w http.ResponseWriter) *continual.Controller {
	ctrl := s.loop.Load()
	if ctrl == nil {
		http.Error(w, "continual learning not enabled", http.StatusNotFound)
	}
	return ctrl
}

func (s *Server) handleContinual(w http.ResponseWriter, r *http.Request) {
	ctrl := s.continualCtl(w)
	if ctrl == nil {
		return
	}
	obs.WriteJSON(w, ctrl.Status())
}

// RetrainRequest optionally names why the operator forced a cycle; the
// reason lands in the transition journal.
type RetrainRequest struct {
	Reason string `json:"reason,omitempty"`
}

func (s *Server) handleContinualRetrain(w http.ResponseWriter, r *http.Request) {
	ctrl := s.continualCtl(w)
	if ctrl == nil {
		return
	}
	var req RetrainRequest
	if r.ContentLength != 0 && !decodeBody(w, r, &req) {
		return
	}
	reason := req.Reason
	if reason == "" {
		reason = "manual trigger (HTTP)"
	}
	if err := ctrl.TriggerRetrain(reason); err != nil {
		// Mid-cycle or not running: a state conflict, not a bad request.
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.WriteHeader(http.StatusAccepted)
	obs.WriteJSON(w, map[string]string{"status": "retrain triggered", "reason": reason})
}

// FeedbackRequest carries ground-truth labeled samples — incident
// resolutions, operator annotations — into the live training buffer.
// Every sample on this endpoint is stored as labeled: it is the
// ground-truth channel, and only labeled samples may grade a candidate
// (pseudo-labels never judge the model that produced them).
type FeedbackRequest struct {
	Samples []continual.Sample `json:"samples"`
}

// FeedbackResponse reports per-sample ingest results.
type FeedbackResponse struct {
	Ingested int      `json:"ingested"`
	Errors   []string `json:"errors,omitempty"`
}

func (s *Server) handleContinualSamples(w http.ResponseWriter, r *http.Request) {
	ctrl := s.continualCtl(w)
	if ctrl == nil {
		return
	}
	var req FeedbackRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if len(req.Samples) == 0 || len(req.Samples) > maxBatch {
		http.Error(w, fmt.Sprintf("sample count must be in [1, %d]", maxBatch), http.StatusBadRequest)
		return
	}
	var resp FeedbackResponse
	for i := range req.Samples {
		smp := req.Samples[i]
		smp.Labeled = true
		if err := ctrl.Ingest(smp); err != nil {
			resp.Errors = append(resp.Errors, fmt.Sprintf("sample %d: %v", i, err))
			continue
		}
		resp.Ingested++
	}
	obs.WriteJSON(w, resp)
}

package analysis

import (
	"fmt"
	"net/http"
	"path/filepath"
	"strings"

	"diagnet/internal/obs"
	"diagnet/internal/serving"
)

// The /v1/models admin surface drives the model rollout lifecycle
// (DESIGN.md §11): list registered versions, load a new one from the
// configured model directory, promote it (atomic hot swap after warm-up),
// or roll back to the previously active version. It is served on the same
// listener as the data plane — deployments that need isolation should
// front it with their proxy's ACLs.

// ModelsResponse answers GET /v1/models.
type ModelsResponse struct {
	Active   string                `json:"active"`
	Versions []serving.VersionInfo `json:"versions"`
}

// ModelAction is the POST /v1/models payload.
type ModelAction struct {
	// Action is one of "load", "promote", "rollback".
	Action string `json:"action"`
	// Version names the version to load or promote (ignored by rollback).
	Version string `json:"version,omitempty"`
	// File is the model/bundle file for "load", resolved inside the
	// server's ModelDir; path separators are rejected.
	File string `json:"file,omitempty"`
}

// ModelActionResult reports the action's outcome.
type ModelActionResult struct {
	OK     bool   `json:"ok"`
	Active string `json:"active"`
	Detail string `json:"detail,omitempty"`
}

// handleModelsList serves GET /v1/models.
func (s *Server) handleModelsList(w http.ResponseWriter, r *http.Request) {
	reg := s.engine.Registry()
	obs.WriteJSON(w, ModelsResponse{Active: reg.Active(), Versions: reg.Versions()})
}

// handleModelAction serves POST /v1/models.
func (s *Server) handleModelAction(w http.ResponseWriter, r *http.Request) {
	var act ModelAction
	if !decodeBody(w, r, &act) {
		return
	}
	if err := s.applyModelAction(&act); err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "disabled") {
			status = http.StatusForbidden
		}
		http.Error(w, err.Error(), status)
		return
	}
	obs.WriteJSON(w, ModelActionResult{OK: true, Active: s.engine.Registry().Active(), Detail: act.Action})
}

// applyModelAction executes one admin action against the registry.
func (s *Server) applyModelAction(act *ModelAction) error {
	reg := s.engine.Registry()
	switch act.Action {
	case "load":
		if s.ModelDir == "" {
			return fmt.Errorf("analysis: model loading over HTTP is disabled (no model dir configured)")
		}
		// Only bare file names inside ModelDir: no traversal, no absolute
		// paths, nothing outside the operator-chosen directory.
		if act.File == "" || act.File != filepath.Base(act.File) || strings.HasPrefix(act.File, ".") {
			return fmt.Errorf("analysis: file must be a bare name inside the model dir")
		}
		version := act.Version
		if version == "" {
			version = strings.TrimSuffix(act.File, ".gob")
		}
		return reg.LoadFile(version, filepath.Join(s.ModelDir, act.File))
	case "promote":
		if act.Version == "" {
			return fmt.Errorf("analysis: promote needs a version")
		}
		return reg.Promote(act.Version)
	case "rollback":
		_, err := reg.Rollback()
		return err
	default:
		return fmt.Errorf("analysis: unknown action %q (want load, promote or rollback)", act.Action)
	}
}

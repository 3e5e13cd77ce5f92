package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"diagnet/internal/resilience"
	"diagnet/internal/telemetry"
)

// FederatorConfig configures the fleet metric federator.
type FederatorConfig struct {
	// Targets returns the current replica base URLs (e.g. from the
	// router's pool), re-evaluated each sweep so membership changes are
	// picked up without restarting the federator.
	Targets func() []string
	// Timeout bounds one scrape (default 2s).
	Timeout time.Duration
	// Registry receives the federator's own metrics (default
	// telemetry.Default()).
	Registry *telemetry.Registry
}

// ReplicaMetrics is one replica's slice of the fleet view.
type ReplicaMetrics struct {
	Name   string           `json:"name"`
	Error  string           `json:"error,omitempty"`
	Export telemetry.Export `json:"export"`
}

// FleetView is the federated snapshot served at /v1/fleet/metrics: the
// exactly-merged fleet export plus the per-replica breakdown it was
// computed from.
type FleetView struct {
	UpdatedUnixMs int64            `json:"updated_unix_ms"`
	Replicas      []ReplicaMetrics `json:"replicas"`
	Fleet         telemetry.Export `json:"fleet"`
	Warnings      []string         `json:"warnings,omitempty"`
}

// Federator fetches every replica's GET /v1/metrics, validates each
// decoded Export (DecodeExport) and maintains the exactly-merged fleet
// view, under the replicas' own dotted names. It does not own a goroutine
// — the caller drives Sweep from its own loop (the router folds it into
// its background cadence).
type Federator struct {
	cfg    FederatorConfig
	client *http.Client

	sweeps *telemetry.Counter
	errs   *telemetry.Counter

	mu   sync.RWMutex
	view FleetView
	ok   bool
}

// NewFederator builds a federator; cfg.Targets is required.
func NewFederator(cfg FederatorConfig) *Federator {
	if cfg.Timeout <= 0 {
		cfg.Timeout = 2 * time.Second
	}
	// Private transport: scrape keep-alives must not pile up in (or
	// outlive the federator on) the process-global DefaultTransport —
	// leak checks over a closed federator would see its idle conns.
	tr, _ := http.DefaultTransport.(*http.Transport)
	if tr != nil {
		tr = tr.Clone()
		tr.MaxIdleConnsPerHost = 4
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.Default()
	}
	return &Federator{
		cfg:    cfg,
		client: &http.Client{Timeout: cfg.Timeout, Transport: tr},
		sweeps: reg.Counter("obs.federate.sweeps"),
		errs:   reg.Counter("obs.federate.errors"),
	}
}

// Sweep scrapes all current targets concurrently, merges the successful
// exports, and publishes the new fleet view. A replica that does not
// answer, or whose payload fails validation, degrades to an error entry —
// the merge proceeds over the replicas that answered.
func (f *Federator) Sweep(ctx context.Context) FleetView {
	f.sweeps.Inc()
	targets := f.cfg.Targets()
	replicas := make([]ReplicaMetrics, len(targets))
	var wg sync.WaitGroup
	for i, url := range targets {
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			replicas[i] = f.scrape(ctx, url)
		}(i, url)
	}
	wg.Wait()

	exports := make([]telemetry.Export, 0, len(replicas))
	for i := range replicas {
		if replicas[i].Error == "" {
			exports = append(exports, replicas[i].Export)
		} else {
			f.errs.Inc()
		}
	}
	fleet, warnings := mergeExports(exports)
	view := FleetView{
		UpdatedUnixMs: time.Now().UnixMilli(),
		Replicas:      replicas,
		Fleet:         fleet,
		Warnings:      warnings,
	}
	f.mu.Lock()
	f.view = view
	f.ok = true
	f.mu.Unlock()
	return view
}

// scrape fetches and validates one replica's Export.
func (f *Federator) scrape(ctx context.Context, base string) ReplicaMetrics {
	rm := ReplicaMetrics{Name: base}
	ctx, cancel := context.WithTimeout(ctx, f.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/metrics", nil)
	if err != nil {
		rm.Error = err.Error()
		return rm
	}
	resp, err := f.client.Do(req)
	if err != nil {
		rm.Error = err.Error()
		return rm
	}
	// Every exit path (error status, oversized body tail) drains, so the
	// scrape connection goes back to the keep-alive pool — a federator
	// re-dialing per sweep leaks sockets into TIME_WAIT at exactly the
	// cadence it scrapes.
	defer resilience.DrainClose(resp.Body, 64<<10)
	if resp.StatusCode != http.StatusOK {
		rm.Error = fmt.Sprintf("status %d", resp.StatusCode)
		return rm
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		rm.Error = err.Error()
		return rm
	}
	ex, err := DecodeExport(body)
	if err != nil {
		rm.Error = err.Error()
		return rm
	}
	rm.Export = ex
	return rm
}

// DecodeExport decodes one replica's /v1/metrics payload and enforces
// what a Registry.Export guarantees and the merge relies on, so that a
// broken or foreign replica is rejected instead of polluting the fleet:
// exactly one JSON document; counters non-negative; histograms with
// strictly ascending bounds and len(bounds)+1 cumulative counts that
// start non-negative and never decrease. Gauge values are unconstrained:
// a NaN loss is a fact about the replica, not a malformed payload.
func DecodeExport(data []byte) (telemetry.Export, error) {
	var ex telemetry.Export
	if err := json.Unmarshal(data, &ex); err != nil { // also refuses anything after the document
		return telemetry.Export{}, fmt.Errorf("obs: decode export: %w", err)
	}
	for _, c := range ex.Counters {
		if c.Value < 0 {
			return telemetry.Export{}, fmt.Errorf("obs: counter %q: negative value %d", c.Name, c.Value)
		}
	}
	for _, h := range ex.Histograms {
		if len(h.Cumulative) != len(h.Bounds)+1 {
			return telemetry.Export{}, fmt.Errorf("obs: histogram %q: %d cumulative counts for %d bounds", h.Name, len(h.Cumulative), len(h.Bounds))
		}
		for j := 1; j < len(h.Bounds); j++ {
			if h.Bounds[j] <= h.Bounds[j-1] {
				return telemetry.Export{}, fmt.Errorf("obs: histogram %q: bounds not strictly ascending at %v", h.Name, h.Bounds[j])
			}
		}
		last := int64(0)
		for _, c := range h.Cumulative {
			if c < last {
				return telemetry.Export{}, fmt.Errorf("obs: histogram %q: cumulative counts negative or decreasing at %d", h.Name, c)
			}
			last = c
		}
	}
	return ex, nil
}

// Close releases the federator's idle scrape connections. Idempotent;
// the caller must have stopped driving Sweep first.
func (f *Federator) Close() {
	f.client.CloseIdleConnections()
}

// View returns the latest fleet view; ok is false before the first sweep
// completes.
func (f *Federator) View() (FleetView, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.view, f.ok
}

// wantsExposition reports whether the request's Accept header asks for the
// OpenMetrics text rendering. Only the fleet view negotiates: unlike a
// daemon's own registry (/v1/metrics JSON, /metrics text) it has one path.
func wantsExposition(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "openmetrics") ||
		strings.Contains(accept, "text/plain")
}

// ServeView writes the fleet view (GET /v1/fleet/metrics) as JSON — the
// merged Export plus the per-replica breakdown — or, when the Accept
// header asks, the merged Export as OpenMetrics text; 503 before the
// first sweep.
func (f *Federator) ServeView(w http.ResponseWriter, r *http.Request) {
	view, ok := f.View()
	if !ok {
		http.Error(w, "federation has not completed a sweep yet", http.StatusServiceUnavailable)
		return
	}
	if wantsExposition(r) {
		w.Header().Set("Content-Type", ContentType)
		_ = writeExposition(w, &view.Fleet)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(view)
}

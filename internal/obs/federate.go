package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"diagnet/internal/telemetry"
)

// FederatorConfig configures the fleet metric federator.
type FederatorConfig struct {
	// Targets returns the current replica base URLs (e.g. from the
	// router's pool), re-evaluated each sweep so membership changes are
	// picked up without restarting the federator.
	Targets func() []string
	// Client performs the scrapes; nil means a client with Timeout.
	Client *http.Client
	// Path is the scrape path on each target (default /metrics).
	Path string
	// Timeout bounds one scrape (default 2s).
	Timeout time.Duration
	// GaugePolicy overrides DefaultGaugePolicy when non-nil.
	GaugePolicy func(string) GaugePolicy
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

// Federator periodically scrapes every replica's exposition endpoint,
// decodes each through the strict parser, and maintains the exactly-merged
// fleet view. It does not own a goroutine — the caller drives Sweep from
// its own loop (the router folds it into its background cadence).
type Federator struct {
	cfg FederatorConfig

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
	if cfg.Client == nil {
		// Private transport: scrape keep-alives must not pile up in (or
		// outlive the federator on) the process-global DefaultTransport —
		// leak checks over a closed federator would see its idle conns.
		tr, _ := http.DefaultTransport.(*http.Transport)
		if tr != nil {
			tr = tr.Clone()
			tr.MaxIdleConnsPerHost = 4
		}
		cfg.Client = &http.Client{Timeout: cfg.Timeout, Transport: tr}
	}
	if cfg.Path == "" {
		cfg.Path = "/metrics"
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.Default()
	}
	return &Federator{
		cfg:    cfg,
		sweeps: reg.Counter("obs.federate.sweeps"),
		errs:   reg.Counter("obs.federate.errors"),
	}
}

// Sweep scrapes all current targets concurrently, merges the successful
// exports, and publishes the new fleet view. Scrape or parse failures
// degrade that replica to an error entry — the merge proceeds over the
// replicas that answered.
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
	fleet, warnings := MergeExports(exports, f.cfg.GaugePolicy)
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

// scrape fetches and strictly parses one replica's exposition.
func (f *Federator) scrape(ctx context.Context, base string) ReplicaMetrics {
	rm := ReplicaMetrics{Name: base}
	ctx, cancel := context.WithTimeout(ctx, f.cfg.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+f.cfg.Path, nil)
	if err != nil {
		rm.Error = err.Error()
		return rm
	}
	req.Header.Set("Accept", ContentType)
	resp, err := f.cfg.Client.Do(req)
	if err != nil {
		rm.Error = err.Error()
		return rm
	}
	// Drain every exit path (error status, parse failure, oversized body
	// tail) before Close, so the scrape connection goes back to the
	// keep-alive pool — a federator re-dialing per sweep leaks sockets
	// into TIME_WAIT at exactly the cadence it scrapes.
	defer func() {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		rm.Error = fmt.Sprintf("status %d", resp.StatusCode)
		return rm
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		rm.Error = err.Error()
		return rm
	}
	ex, err := ParseExposition(body)
	if err != nil {
		rm.Error = err.Error()
		return rm
	}
	rm.Export = ex
	return rm
}

// Close releases the federator's idle scrape connections. Idempotent;
// the caller must have stopped driving Sweep first.
func (f *Federator) Close() {
	f.cfg.Client.CloseIdleConnections()
}

// View returns the latest fleet view; ok is false before the first sweep
// completes.
func (f *Federator) View() (FleetView, bool) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.view, f.ok
}

// ServeView writes the fleet view as JSON (GET /v1/fleet/metrics), or 503
// before the first sweep.
func (f *Federator) ServeView(w http.ResponseWriter, r *http.Request) {
	view, ok := f.View()
	if !ok {
		http.Error(w, "federation has not completed a sweep yet", http.StatusServiceUnavailable)
		return
	}
	if wantsExposition(r) {
		w.Header().Set("Content-Type", ContentType)
		_ = WriteExposition(w, &view.Fleet)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(view)
}

package obs

import (
	"encoding/json"
	"net/http"
	"sync"
	"time"

	"diagnet/internal/telemetry"
)

// Objective is one declarative service-level objective evaluated over the
// federated fleet export. Exactly one of the two shapes is used:
//
//   - availability: Errors/Requests name two counters; the bad ratio is
//     Δerrors/Δrequests over a window.
//   - latency: Histogram names a latency histogram and ThresholdMs the
//     bound that splits good from bad; the bad ratio is the fraction of
//     observations above the threshold. ThresholdMs should be one of the
//     histogram's fixed bucket bounds — the split is then exact; otherwise
//     the nearest bound at or below the threshold is used.
type Objective struct {
	Name        string  `json:"name"`
	Goal        float64 `json:"goal"` // e.g. 0.999
	Requests    string  `json:"requests,omitempty"`
	Errors      string  `json:"errors,omitempty"`
	Histogram   string  `json:"histogram,omitempty"`
	ThresholdMs float64 `json:"threshold_ms,omitempty"`
}

// counts extracts the cumulative (bad, total) pair from an export.
func (o *Objective) counts(ex *telemetry.Export) (bad, total int64, ok bool) {
	if o.Histogram != "" {
		h, found := ex.Histogram(o.Histogram)
		if !found {
			return 0, 0, false
		}
		total = h.Count()
		good := int64(0)
		for i, b := range h.Bounds {
			if b <= o.ThresholdMs {
				good = h.Cumulative[i]
			} else {
				break
			}
		}
		return total - good, total, true
	}
	total, okT := ex.Counter(o.Requests)
	bad, okB := ex.Counter(o.Errors)
	return bad, total, okT && okB
}

// DefaultObjectives returns the standard pair over the fleet's
// /v1/diagnose metrics (DiagnoseRoute, read from the merged fleet export).
func DefaultObjectives(target, latencyMs float64) []Objective {
	return []Objective{
		{
			Name:     "diagnose-availability",
			Goal:     target,
			Requests: DiagnoseRoute.Requests,
			Errors:   DiagnoseRoute.Errors,
		},
		{
			Name:        "diagnose-latency",
			Goal:        target,
			Histogram:   DiagnoseRoute.Latency,
			ThresholdMs: latencyMs,
		},
	}
}

// BurnRule is one multi-window burn-rate alert rule: it fires when the
// error-budget burn rate meets Factor on BOTH the short and the long
// window (the short window makes the alert reset quickly after recovery,
// the long window keeps a brief blip from paging), and clears when the
// short-window burn drops back below Factor.
type BurnRule struct {
	Name     string        `json:"name"`
	Short    time.Duration `json:"-"`
	Long     time.Duration `json:"-"`
	Factor   float64       `json:"factor"`
	Severity string        `json:"severity"` // "page" or "warn"
}

// DefaultBurnRules is the classic multiwindow pair: the fast rule pages
// on a burn that would spend ~2% of a 30-day budget in an hour, the slow
// rule warns on a burn that would just exhaust the budget.
func DefaultBurnRules() []BurnRule {
	return []BurnRule{
		{Name: "fast", Short: 5 * time.Minute, Long: time.Hour, Factor: 14.4, Severity: "page"},
		{Name: "slow", Short: 6 * time.Hour, Long: 72 * time.Hour, Factor: 1, Severity: "warn"},
	}
}

// AlertEvent is delivered to OnTransition when a (objective, rule) pair
// starts or stops firing.
type AlertEvent struct {
	Objective string
	Rule      string
	Severity  string
	Firing    bool
	Burn      float64 // short-window burn at transition time
	At        time.Time
}

// SLOConfig configures the engine.
type SLOConfig struct {
	Objectives []Objective
	Rules      []BurnRule // nil means DefaultBurnRules()
	// OnTransition, when set, observes alert state changes (the router
	// logs each firing and clearing with it).
	OnTransition func(AlertEvent)
	// Registry receives the engine's own metrics (default telemetry.Default()).
	Registry *telemetry.Registry
}

// sample is one cumulative (bad, total) observation.
type sample struct {
	t          time.Time
	bad, total int64
}

// alertKey identifies one (objective, rule) alert instance.
type alertKey struct{ obj, rule string }

type alertState struct {
	firing bool
	since  time.Time
}

// SLOEngine evaluates burn-rate rules over sliding windows of cumulative
// (bad, total) samples extracted from successive fleet exports. Feed it
// with Observe after every federation sweep; read it at /v1/slo.
type SLOEngine struct {
	cfg    SLOConfig
	rules  []BurnRule
	fired  *telemetry.Counter
	clear  *telemetry.Counter
	firing *telemetry.Gauge

	mu      sync.Mutex
	history map[string][]sample // objective name -> time-ordered ring
	alerts  map[alertKey]*alertState
}

// NewSLOEngine builds an engine over the given objectives.
func NewSLOEngine(cfg SLOConfig) *SLOEngine {
	rules := cfg.Rules
	if rules == nil {
		rules = DefaultBurnRules()
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.Default()
	}
	return &SLOEngine{
		cfg:     cfg,
		rules:   rules,
		fired:   reg.Counter("slo.alerts.fired"),
		clear:   reg.Counter("slo.alerts.cleared"),
		firing:  reg.Gauge("slo.alerts.firing"),
		history: map[string][]sample{},
		alerts:  map[alertKey]*alertState{},
	}
}

// Observe records one fleet export at the given time and re-evaluates
// every (objective, rule) pair, emitting transitions.
func (e *SLOEngine) Observe(now time.Time, ex *telemetry.Export) {
	var events []AlertEvent
	e.mu.Lock()
	for i := range e.cfg.Objectives {
		o := &e.cfg.Objectives[i]
		bad, total, ok := o.counts(ex)
		if !ok {
			continue
		}
		hist := append(e.history[o.Name], sample{t: now, bad: bad, total: total})
		e.history[o.Name] = e.prune(hist, now)
		for _, r := range e.rules {
			burnShort := e.burn(o, now, r.Short)
			burnLong := e.burn(o, now, r.Long)
			key := alertKey{o.Name, r.Name}
			st := e.alerts[key]
			if st == nil {
				st = &alertState{}
				e.alerts[key] = st
			}
			switch {
			case !st.firing && burnShort >= r.Factor && burnLong >= r.Factor:
				st.firing = true
				st.since = now
				e.fired.Inc()
				e.firing.Add(1)
				events = append(events, AlertEvent{
					Objective: o.Name, Rule: r.Name, Severity: r.Severity,
					Firing: true, Burn: burnShort, At: now,
				})
			case st.firing && burnShort < r.Factor:
				st.firing = false
				e.clear.Inc()
				e.firing.Add(-1)
				events = append(events, AlertEvent{
					Objective: o.Name, Rule: r.Name, Severity: r.Severity,
					Firing: false, Burn: burnShort, At: now,
				})
			}
		}
	}
	e.mu.Unlock()
	if e.cfg.OnTransition != nil {
		for _, ev := range events {
			e.cfg.OnTransition(ev)
		}
	}
}

// prune drops samples that can no longer anchor any rule's long window,
// keeping one sample beyond the horizon so the window delta stays
// anchored.
func (e *SLOEngine) prune(hist []sample, now time.Time) []sample {
	var longest time.Duration
	for _, r := range e.rules {
		if r.Long > longest {
			longest = r.Long
		}
	}
	horizon := now.Add(-longest)
	cut := 0
	for cut < len(hist)-1 && hist[cut+1].t.Before(horizon) {
		cut++
	}
	if cut == 0 {
		return hist
	}
	return append(hist[:0], hist[cut:]...)
}

// burn computes the error-budget burn rate over the trailing window W:
// (bad ratio over W) / (1 − goal). The window anchor is the newest sample
// at or before now−W; with fewer samples than the window spans, the
// oldest sample anchors (the window "grows into" its width on startup).
// Called with e.mu held.
func (e *SLOEngine) burn(o *Objective, now time.Time, w time.Duration) float64 {
	hist := e.history[o.Name]
	if len(hist) < 2 {
		return 0
	}
	latest := hist[len(hist)-1]
	cutoff := now.Add(-w)
	anchor := hist[0]
	for _, s := range hist {
		if s.t.After(cutoff) {
			break
		}
		anchor = s
	}
	dTotal := latest.total - anchor.total
	dBad := latest.bad - anchor.bad
	if dTotal <= 0 || dBad <= 0 {
		return 0
	}
	budget := 1 - o.Goal
	if budget <= 0 {
		return 0
	}
	return (float64(dBad) / float64(dTotal)) / budget
}

// AlertStatus is one (objective, rule) alert's externally visible state.
type AlertStatus struct {
	Objective   string  `json:"objective"`
	Rule        string  `json:"rule"`
	Severity    string  `json:"severity"`
	Factor      float64 `json:"factor"`
	ShortMs     int64   `json:"short_window_ms"`
	LongMs      int64   `json:"long_window_ms"`
	BurnShort   float64 `json:"burn_short"`
	BurnLong    float64 `json:"burn_long"`
	Firing      bool    `json:"firing"`
	SinceUnixMs int64   `json:"since_unix_ms,omitempty"`
}

// ObjectiveStatus is one objective's externally visible state.
type ObjectiveStatus struct {
	Objective
	// BudgetRemaining is the fraction of the error budget left over the
	// slowest rule's long window: 1 − burn. Negative once overspent.
	BudgetRemaining float64       `json:"budget_remaining"`
	Alerts          []AlertStatus `json:"alerts"`
}

// Status renders the alert state machine (GET /v1/slo).
func (e *SLOEngine) Status(now time.Time) []ObjectiveStatus {
	e.mu.Lock()
	defer e.mu.Unlock()
	var longest BurnRule
	for _, r := range e.rules {
		if r.Long > longest.Long {
			longest = r
		}
	}
	out := make([]ObjectiveStatus, 0, len(e.cfg.Objectives))
	for i := range e.cfg.Objectives {
		o := &e.cfg.Objectives[i]
		os := ObjectiveStatus{
			Objective:       *o,
			BudgetRemaining: 1 - e.burn(o, now, longest.Long),
		}
		for _, r := range e.rules {
			st := e.alerts[alertKey{o.Name, r.Name}]
			as := AlertStatus{
				Objective: o.Name,
				Rule:      r.Name,
				Severity:  r.Severity,
				Factor:    r.Factor,
				ShortMs:   r.Short.Milliseconds(),
				LongMs:    r.Long.Milliseconds(),
				BurnShort: e.burn(o, now, r.Short),
				BurnLong:  e.burn(o, now, r.Long),
			}
			if st != nil && st.firing {
				as.Firing = true
				as.SinceUnixMs = st.since.UnixMilli()
			}
			os.Alerts = append(os.Alerts, as)
		}
		out = append(out, os)
	}
	return out
}

// ServeStatus writes the SLO status as JSON (GET /v1/slo).
func (e *SLOEngine) ServeStatus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(struct {
		UpdatedUnixMs int64             `json:"updated_unix_ms"`
		Objectives    []ObjectiveStatus `json:"objectives"`
	}{time.Now().UnixMilli(), e.Status(time.Now())})
}

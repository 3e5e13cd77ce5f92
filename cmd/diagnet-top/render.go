package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"time"

	"diagnet/internal/cluster"
	"diagnet/internal/obs"
	"diagnet/internal/telemetry"
	"diagnet/internal/tracing"
)

// metricPassRows is the serving engine's rows-per-pass histogram; the
// diagnose route's own metrics are named by obs.DiagnoseRoute.
const metricPassRows = "serving.pass.rows"

// sloDoc mirrors the router's /v1/slo response.
type sloDoc struct {
	Objectives []struct {
		Name            string  `json:"name"`
		Goal            float64 `json:"goal"`
		BudgetRemaining float64 `json:"budget_remaining"`
		Alerts          []struct {
			Rule     string `json:"rule"`
			Severity string `json:"severity"`
			Firing   bool   `json:"firing"`
		} `json:"alerts"`
	} `json:"objectives"`
}

// fleetSample is everything one refresh needs, stamped with its own time
// so windowed rates survive a slow scrape.
type fleetSample struct {
	At       time.Time
	View     obs.FleetView
	SLO      *sloDoc // nil when the router has no SLO engine
	Replicas []cluster.ReplicaStatus
}

// collect pulls one sample off the router. /v1/fleet/metrics is
// required; /v1/slo is optional (404 when disabled); /v1/replicas rounds
// out the health columns.
func collect(client *http.Client, base string) (*fleetSample, error) {
	s := &fleetSample{At: time.Now()}
	if err := getJSON(client, base+"/v1/fleet/metrics", &s.View); err != nil {
		return nil, fmt.Errorf("fleet metrics: %w (is the router running with -federate-interval?)", err)
	}
	var slo sloDoc
	switch err := getJSON(client, base+"/v1/slo", &slo); {
	case err == nil:
		s.SLO = &slo
	case !isNotFound(err):
		return nil, fmt.Errorf("slo: %w", err)
	}
	if err := getJSON(client, base+"/v1/replicas", &s.Replicas); err != nil {
		return nil, fmt.Errorf("replicas: %w", err)
	}
	return s, nil
}

type httpStatusError int

func (e httpStatusError) Error() string { return fmt.Sprintf("status %d", int(e)) }

func isNotFound(err error) bool {
	se, ok := err.(httpStatusError)
	return ok && int(se) == http.StatusNotFound
}

func getJSON(client *http.Client, url string, v any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpStatusError(resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// window extracts the rate-and-quantile numbers for one export pair:
// the observations made between prev and cur.
type window struct {
	QPS      float64
	ErrRate  float64 // errors per request in the window, 0..1
	P50, P99 float64 // ms; NaN-free — 0 when the window is empty
	Count    int64
	// RowsPerPass is the mean number of requests one inference pass fused
	// (all of a micro-batch whose models share the trunk, whatever their
	// services and layouts); 0 when the window holds no pass.
	RowsPerPass float64
	// Layers is the mean time of one run of each stage of tracing.Stages,
	// in its order, in ms; 0 when the window holds no run of it.
	Layers []float64
}

func windowOf(prev, cur *telemetry.Export, elapsed time.Duration) window {
	var w window
	if elapsed <= 0 {
		return w
	}
	route := obs.DiagnoseRoute
	curReq, _ := cur.Counter(route.Requests)
	curErr, _ := cur.Counter(route.Errors)
	var prevReq, prevErr int64
	if prev != nil {
		prevReq, _ = prev.Counter(route.Requests)
		prevErr, _ = prev.Counter(route.Errors)
	}
	dReq, dErr := curReq-prevReq, curErr-prevErr
	if dReq < 0 { // replica restarted and counters reset: show the window as empty
		return w
	}
	w.QPS = float64(dReq) / elapsed.Seconds()
	if dReq > 0 && dErr > 0 {
		w.ErrRate = float64(dErr) / float64(dReq)
	}
	w.RowsPerPass = meanDelta(prev, cur, metricPassRows)
	for _, st := range tracing.Stages {
		w.Layers = append(w.Layers, meanDelta(prev, cur, tracing.LatencyName(st.Name())))
	}
	if lat, ok := histogramDelta(prev, cur, route.Latency); ok {
		w.Count = lat.Count()
		if w.Count > 0 {
			w.P50 = lat.Quantile(0.5)
			w.P99 = lat.Quantile(0.99)
		}
	}
	return w
}

// meanDelta is the mean of the observations a histogram took between prev
// and cur, 0 when there were none.
func meanDelta(prev, cur *telemetry.Export, name string) float64 {
	if h, ok := histogramDelta(prev, cur, name); ok && h.Count() > 0 {
		return h.Sum / float64(h.Count())
	}
	return 0
}

// histogramDelta is the distribution of the observations a histogram took
// between prev and cur; false when either side lacks it or it was reset.
func histogramDelta(prev, cur *telemetry.Export, name string) (telemetry.HistogramPoint, bool) {
	curH, ok := cur.Histogram(name)
	if !ok {
		return telemetry.HistogramPoint{}, false
	}
	var prevH *telemetry.HistogramPoint
	if prev != nil {
		prevH, _ = prev.Histogram(name)
	}
	return obs.SubtractHistogram(curH, prevH)
}

// render writes the fleet dashboard for the window between two samples.
func render(out io.Writer, prev, cur *fleetSample) {
	elapsed := cur.At.Sub(prev.At)
	fleet := windowOf(&prev.View.Fleet, &cur.View.Fleet, elapsed)

	fmt.Fprintf(out, "diagnet fleet — %d replicas, %s window\n\n",
		len(cur.View.Replicas), elapsed.Round(100*time.Millisecond))
	fmt.Fprintf(out, "  fleet   %8.1f qps   p50 %s   p99 %s   errors %5.2f%%\n",
		fleet.QPS, fmtMs(fleet.P50), fmtMs(fleet.P99), fleet.ErrRate*100)

	if cur.SLO != nil {
		for _, o := range cur.SLO.Objectives {
			firing := ""
			for _, a := range o.Alerts {
				if a.Firing {
					firing += fmt.Sprintf("  [%s %s FIRING]", a.Severity, a.Rule)
				}
			}
			fmt.Fprintf(out, "  slo     %-24s goal %.4g   budget %6.1f%%%s\n",
				o.Name, o.Goal, o.BudgetRemaining*100, firing)
		}
	}

	fmt.Fprintf(out, "\n  %-32s %-8s %-9s %8s %10s %10s %10s\n",
		"REPLICA", "HEALTH", "BREAKER", "QPS", "P99(ms)", "OUTSTD", "ROWS/PASS")
	// Join the federated per-replica exports with the pool's health rows
	// by replica name (both use the base URL).
	health := map[string]cluster.ReplicaStatus{}
	for _, r := range cur.Replicas {
		health[r.Name] = r
	}
	prevRep := map[string]*telemetry.Export{}
	for i := range prev.View.Replicas {
		prevRep[prev.View.Replicas[i].Name] = &prev.View.Replicas[i].Export
	}
	rows := append([]obs.ReplicaMetrics(nil), cur.View.Replicas...)
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	windows := make([]window, len(rows))
	for i := range rows {
		r := &rows[i]
		if r.Error != "" {
			fmt.Fprintf(out, "  %-32s scrape error: %s\n", r.Name, r.Error)
			continue
		}
		w := windowOf(prevRep[r.Name], &r.Export, elapsed)
		windows[i] = w
		h, healthy, breaker := health[r.Name], "?", "?"
		if h.Name != "" {
			if h.Healthy {
				healthy = "ready"
			} else {
				healthy = "DOWN"
			}
			breaker = h.Breaker
		}
		fmt.Fprintf(out, "  %-32s %-8s %-9s %8.1f %10s %10d %10s\n",
			r.Name, healthy, breaker, w.QPS, fmtMs(w.P99), h.Outstanding, fmtMs(w.RowsPerPass))
	}
	// Where a replica's diagnoses spent their time: the mean run of every
	// stage in the window, under the stage table's names.
	fmt.Fprintf(out, "\n  %-32s", "LAYER MEAN (ms)")
	for _, st := range tracing.Stages {
		fmt.Fprintf(out, " %*s", len(st.Name()), st.Name())
	}
	fmt.Fprintln(out)
	for i := range rows {
		if rows[i].Error != "" {
			continue
		}
		fmt.Fprintf(out, "  %-32s", rows[i].Name)
		for k, st := range tracing.Stages {
			v := "—"
			if ms := windows[i].Layers[k]; ms > 0 {
				v = fmt.Sprintf("%.3f", ms)
			}
			fmt.Fprintf(out, " %*s", len(st.Name()), v)
		}
		fmt.Fprintln(out)
	}
	for _, wmsg := range cur.View.Warnings {
		fmt.Fprintf(out, "\n  warning: %s\n", wmsg)
	}
}

// fmtMs renders a windowed value (a millisecond quantile, rows per pass), or
// a dash for an empty window.
func fmtMs(v float64) string {
	if v <= 0 {
		return "     —"
	}
	return fmt.Sprintf("%6.1f", v)
}

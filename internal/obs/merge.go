package obs

import (
	"fmt"
	"strings"

	"diagnet/internal/telemetry"
)

// gaugeSums reports how one gauge family aggregates across replicas, by
// name: occupancy-style gauges (in-flight requests, queue depths) sum —
// the fleet total is the sum of the per-replica totals — and level-style
// gauges (readiness, drift scores, config epochs), where a sum across the
// fleet is meaningless, average.
func gaugeSums(name string) bool {
	for _, marker := range []string{"inflight", "in_flight", "outstanding", "depth", "pending"} {
		if strings.Contains(name, marker) {
			return true
		}
	}
	return false
}

// mergeExports combines per-replica exports into one fleet export:
//
//   - counters: integer sum — exact.
//   - histograms: element-wise sum of cumulative bucket counts plus the
//     float sum of sums. Exact (up to float addition of the sums) because
//     every DiagNet histogram of a given name shares fixed bounds; a
//     replica whose bounds disagree is skipped for that family and
//     reported in warnings rather than polluting the merge. The merged
//     exemplar is the one with the largest value — the fleet-wide tail
//     witness.
//   - gauges: sum or mean, chosen by name (gaugeSums).
//
// The result is sorted by name, so merging the same inputs always yields
// byte-identical renderings.
func mergeExports(exports []telemetry.Export) (telemetry.Export, []string) {
	var warnings []string

	counters := map[string]int64{}
	type gaugeAgg struct {
		sum float64
		n   int
	}
	gauges := map[string]*gaugeAgg{}
	hists := map[string]*telemetry.HistogramPoint{}

	for ri := range exports {
		ex := &exports[ri]
		for _, c := range ex.Counters {
			counters[c.Name] += c.Value
		}
		for _, g := range ex.Gauges {
			a := gauges[g.Name]
			if a == nil {
				a = &gaugeAgg{}
				gauges[g.Name] = a
			}
			a.sum += g.Value
			a.n++
		}
		for _, h := range ex.Histograms {
			m := hists[h.Name]
			if m == nil {
				cp := h
				cp.Bounds = append([]float64(nil), h.Bounds...)
				cp.Cumulative = append([]int64(nil), h.Cumulative...)
				hists[h.Name] = &cp
				continue
			}
			if !sameBounds(m.Bounds, h.Bounds) {
				warnings = append(warnings, fmt.Sprintf("histogram %s: replica %d has mismatched bounds; skipped", h.Name, ri))
				continue
			}
			for i := range m.Cumulative {
				m.Cumulative[i] += h.Cumulative[i]
			}
			m.Sum += h.Sum
			if h.Exemplar != nil && (m.Exemplar == nil || h.Exemplar.Value > m.Exemplar.Value) {
				m.Exemplar = h.Exemplar
			}
		}
	}

	var out telemetry.Export
	for name, v := range counters {
		out.Counters = append(out.Counters, telemetry.CounterPoint{Name: name, Value: v})
	}
	for name, a := range gauges {
		v := a.sum
		if !gaugeSums(name) && a.n > 0 {
			v = a.sum / float64(a.n)
		}
		out.Gauges = append(out.Gauges, telemetry.GaugePoint{Name: name, Value: v})
	}
	for _, h := range hists {
		out.Histograms = append(out.Histograms, *h)
	}
	out.Sort()
	return out, warnings
}

// SubtractHistogram returns the windowed distribution cur − prev
// (element-wise cumulative-count difference): the observations that
// arrived since prev was taken. A nil prev yields cur itself (the first
// window is the lifetime). Reports false on mismatched bounds or a
// negative delta (replica restart reset the counters).
func SubtractHistogram(cur, prev *telemetry.HistogramPoint) (telemetry.HistogramPoint, bool) {
	if prev == nil {
		return *cur, true
	}
	if !sameBounds(cur.Bounds, prev.Bounds) || len(cur.Cumulative) != len(prev.Cumulative) {
		return telemetry.HistogramPoint{}, false
	}
	out := telemetry.HistogramPoint{
		Name:       cur.Name,
		Bounds:     cur.Bounds,
		Cumulative: make([]int64, len(cur.Cumulative)),
		Sum:        cur.Sum - prev.Sum,
	}
	for i := range cur.Cumulative {
		d := cur.Cumulative[i] - prev.Cumulative[i]
		if d < 0 {
			return telemetry.HistogramPoint{}, false
		}
		out.Cumulative[i] = d
	}
	return out, true
}

func sameBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

package obs

import (
	"bufio"
	"io"
	"math"
	"strconv"
	"strings"

	"diagnet/internal/telemetry"
)

// ContentType is the exposition media type served by /metrics. The
// OpenMetrics text format is the Prometheus exposition format that admits
// exemplars; Prometheus negotiates it natively.
const ContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// PromName maps a dotted registry name to a Prometheus metric family
// name: every character outside [a-zA-Z0-9_:] becomes '_', and a leading
// digit is prefixed. The text writer below is its one caller — everything
// else, on either side of a federation hop, speaks dotted names.
func PromName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "_"
	}
	return b.String()
}

// writeExposition renders an Export in the OpenMetrics text format:
// per-family HELP/TYPE pairs, counters as <name>_total, histograms as
// cumulative _bucket series with a terminal +Inf bucket plus _sum and
// _count, the registry's tail exemplar annotated on its bucket line, and
// a terminal # EOF. Families are emitted in Export order (sorted), so two
// scrapes of identical state are byte-identical.
func writeExposition(w io.Writer, ex *telemetry.Export) error {
	bw := bufio.NewWriter(w)
	for i := range ex.Counters {
		c := &ex.Counters[i]
		n := PromName(c.Name)
		writeHeader(bw, n, "counter", c.Name)
		bw.WriteString(n)
		bw.WriteString("_total ")
		bw.WriteString(strconv.FormatInt(c.Value, 10))
		bw.WriteByte('\n')
	}
	for i := range ex.Gauges {
		g := &ex.Gauges[i]
		n := PromName(g.Name)
		writeHeader(bw, n, "gauge", g.Name)
		bw.WriteString(n)
		bw.WriteByte(' ')
		bw.WriteString(formatValue(g.Value))
		bw.WriteByte('\n')
	}
	for i := range ex.Histograms {
		writeHistogram(bw, &ex.Histograms[i])
	}
	bw.WriteString("# EOF\n")
	return bw.Flush()
}

// writeHeader emits the HELP/TYPE pair for one metric family.
func writeHeader(bw *bufio.Writer, name, typ, source string) {
	bw.WriteString("# HELP ")
	bw.WriteString(name)
	bw.WriteString(" DiagNet ")
	bw.WriteString(typ)
	bw.WriteByte(' ')
	bw.WriteString(escapeHelp(source))
	bw.WriteString(".\n# TYPE ")
	bw.WriteString(name)
	bw.WriteByte(' ')
	bw.WriteString(typ)
	bw.WriteByte('\n')
}

// writeHistogram emits one histogram family: cumulative buckets (with the
// exemplar annotated on the bucket the tail observation landed in), the
// +Inf terminal bucket, then _sum and _count.
func writeHistogram(bw *bufio.Writer, p *telemetry.HistogramPoint) {
	n := PromName(p.Name)
	writeHeader(bw, n, "histogram", p.Name)
	exemplarBucket := -1
	if p.Exemplar != nil {
		exemplarBucket = len(p.Bounds) // +Inf unless a bound holds it
		for i, b := range p.Bounds {
			if p.Exemplar.Value <= b {
				exemplarBucket = i
				break
			}
		}
	}
	for i := 0; i < len(p.Cumulative); i++ {
		bw.WriteString(n)
		bw.WriteString(`_bucket{le="`)
		if i < len(p.Bounds) {
			bw.WriteString(formatValue(p.Bounds[i]))
		} else {
			bw.WriteString("+Inf")
		}
		bw.WriteString(`"} `)
		bw.WriteString(strconv.FormatInt(p.Cumulative[i], 10))
		if i == exemplarBucket {
			bw.WriteString(` # {trace_id="`)
			bw.WriteString(p.Exemplar.TraceID)
			bw.WriteString(`"} `)
			bw.WriteString(formatValue(p.Exemplar.Value))
		}
		bw.WriteByte('\n')
	}
	bw.WriteString(n)
	bw.WriteString("_sum ")
	bw.WriteString(formatValue(p.Sum))
	bw.WriteByte('\n')
	bw.WriteString(n)
	bw.WriteString("_count ")
	count := int64(0)
	if len(p.Cumulative) > 0 {
		count = p.Cumulative[len(p.Cumulative)-1]
	}
	bw.WriteString(strconv.FormatInt(count, 10))
	bw.WriteByte('\n')
}

// formatValue renders a float64 so it round-trips exactly through
// strconv.ParseFloat: a scraper must read back the value the registry
// holds, non-finite ones included.
func formatValue(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// escapeHelp escapes backslashes and newlines in HELP text per the
// exposition format.
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

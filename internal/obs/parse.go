package obs

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"diagnet/internal/telemetry"
)

// ParseExposition strictly parses exposition text back into an Export
// (metric names are the Prometheus family names the writer produced — the
// only place those appear). It is writeExposition's reference lint, run by
// the tests and the fuzzer against everything the daemons serve at
// /metrics; nothing in production decodes text. Beyond decoding, it
// enforces the rules a healthy exposition must satisfy —
//
//   - metric family names match [a-zA-Z_:][a-zA-Z0-9_:]*
//   - every family declares # HELP then # TYPE before any sample, with a
//     known type (counter, gauge, histogram) and no duplicate families
//   - counters expose exactly one <family>_total sample with a
//     non-negative integer value
//   - gauges expose exactly one <family> sample
//   - histograms expose _bucket series with strictly ascending le bounds,
//     monotone non-decreasing cumulative counts, a terminal le="+Inf"
//     bucket, then _sum and _count, with _count equal to the +Inf bucket
//   - exemplars ({trace_id="..."} annotations) appear only on bucket lines
//   - the document ends with # EOF and nothing follows it
func ParseExposition(data []byte) (telemetry.Export, error) {
	p := &parser{}
	lines := strings.Split(string(data), "\n")
	for i, line := range lines {
		ln := i + 1
		if line == "" {
			if i == len(lines)-1 {
				continue // trailing newline
			}
			return telemetry.Export{}, fmt.Errorf("obs: line %d: blank line inside exposition", ln)
		}
		if p.eof {
			return telemetry.Export{}, fmt.Errorf("obs: line %d: content after # EOF", ln)
		}
		var err error
		switch {
		case line == "# EOF":
			if err = p.finish(); err == nil {
				p.eof = true
			}
		case strings.HasPrefix(line, "# HELP "):
			err = p.help(line[len("# HELP "):])
		case strings.HasPrefix(line, "# TYPE "):
			err = p.typ(line[len("# TYPE "):])
		case strings.HasPrefix(line, "#"):
			err = fmt.Errorf("unexpected comment")
		default:
			err = p.sample(line)
		}
		if err != nil {
			return telemetry.Export{}, fmt.Errorf("obs: line %d: %w", ln, err)
		}
	}
	if !p.eof {
		return telemetry.Export{}, fmt.Errorf("obs: missing terminal # EOF")
	}
	p.out.Sort()
	return p.out, nil
}

// parser accumulates one family at a time; finish validates and commits
// it into the output export.
type parser struct {
	out  telemetry.Export
	seen map[string]bool
	eof  bool

	fam     string
	famType string
	samples int

	// histogram accumulation
	bounds   []float64
	counts   []int64
	sawInf   bool
	sum      float64
	sumSet   bool
	count    int64
	countSet bool
	exemplar *telemetry.Exemplar

	// counter / gauge value
	cval int64
	gval float64
}

func validName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			return false
		}
	}
	return true
}

// help opens a new family (closing the previous one).
func (p *parser) help(rest string) error {
	name, _, ok := strings.Cut(rest, " ")
	if !ok || name == "" {
		return fmt.Errorf("malformed HELP")
	}
	if !validName(name) {
		return fmt.Errorf("invalid metric family name %q", name)
	}
	if err := p.finish(); err != nil {
		return err
	}
	if p.seen == nil {
		p.seen = map[string]bool{}
	}
	if p.seen[name] {
		return fmt.Errorf("duplicate metric family %q", name)
	}
	p.seen[name] = true
	p.fam = name
	return nil
}

func (p *parser) typ(rest string) error {
	name, t, ok := strings.Cut(rest, " ")
	if !ok {
		return fmt.Errorf("malformed TYPE")
	}
	if p.fam == "" || name != p.fam {
		return fmt.Errorf("TYPE %q without preceding HELP", name)
	}
	if p.famType != "" {
		return fmt.Errorf("duplicate TYPE for %q", name)
	}
	switch t {
	case "counter", "gauge", "histogram":
		p.famType = t
	default:
		return fmt.Errorf("unknown type %q for %q", t, name)
	}
	return nil
}

// finish validates and commits the open family, resetting the
// accumulator.
func (p *parser) finish() error {
	if p.fam == "" {
		return nil
	}
	if p.famType == "" {
		return fmt.Errorf("family %q has HELP but no TYPE", p.fam)
	}
	if p.samples == 0 {
		return fmt.Errorf("family %q has no samples", p.fam)
	}
	switch p.famType {
	case "counter":
		p.out.Counters = append(p.out.Counters, telemetry.CounterPoint{Name: p.fam, Value: p.cval})
	case "gauge":
		p.out.Gauges = append(p.out.Gauges, telemetry.GaugePoint{Name: p.fam, Value: p.gval})
	case "histogram":
		if !p.sawInf {
			return fmt.Errorf("histogram %q lacks the terminal +Inf bucket", p.fam)
		}
		if !p.sumSet || !p.countSet {
			return fmt.Errorf("histogram %q lacks _sum or _count", p.fam)
		}
		if p.count != p.counts[len(p.counts)-1] {
			return fmt.Errorf("histogram %q _count %d != +Inf bucket %d", p.fam, p.count, p.counts[len(p.counts)-1])
		}
		p.out.Histograms = append(p.out.Histograms, telemetry.HistogramPoint{
			Name:       p.fam,
			Bounds:     p.bounds,
			Cumulative: p.counts,
			Sum:        p.sum,
			Exemplar:   p.exemplar,
		})
	}
	p.fam, p.famType, p.samples = "", "", 0
	p.bounds, p.counts, p.sawInf = nil, nil, false
	p.sum, p.sumSet, p.count, p.countSet = 0, false, 0, false
	p.exemplar = nil
	p.cval, p.gval = 0, 0
	return nil
}

// sample parses one sample line and applies the per-type rules.
func (p *parser) sample(line string) error {
	if p.fam == "" || p.famType == "" {
		return fmt.Errorf("sample before HELP/TYPE")
	}
	name, labels, value, exemplar, err := splitSample(line)
	if err != nil {
		return err
	}
	switch p.famType {
	case "counter":
		if name != p.fam+"_total" {
			return fmt.Errorf("counter %q: unexpected sample %q", p.fam, name)
		}
		if p.samples != 0 {
			return fmt.Errorf("counter %q: duplicate sample", p.fam)
		}
		if labels != "" || exemplar != nil {
			return fmt.Errorf("counter %q: unexpected labels or exemplar", p.fam)
		}
		v, err := strconv.ParseInt(value, 10, 64)
		if err != nil || v < 0 {
			return fmt.Errorf("counter %q: value %q is not a non-negative integer", p.fam, value)
		}
		p.cval = v
	case "gauge":
		if name != p.fam {
			return fmt.Errorf("gauge %q: unexpected sample %q", p.fam, name)
		}
		if p.samples != 0 {
			return fmt.Errorf("gauge %q: duplicate sample", p.fam)
		}
		if labels != "" || exemplar != nil {
			return fmt.Errorf("gauge %q: unexpected labels or exemplar", p.fam)
		}
		v, err := parseValue(value)
		if err != nil {
			return fmt.Errorf("gauge %q: bad value %q", p.fam, value)
		}
		p.gval = v
	case "histogram":
		return p.histogramSample(name, labels, value, exemplar)
	}
	p.samples++
	return nil
}

func (p *parser) histogramSample(name, labels, value string, exemplar *telemetry.Exemplar) error {
	switch name {
	case p.fam + "_bucket":
		if p.sumSet || p.countSet {
			return fmt.Errorf("histogram %q: bucket after _sum/_count", p.fam)
		}
		le, ok := strings.CutPrefix(labels, `le="`)
		if !ok || !strings.HasSuffix(le, `"`) || strings.Contains(le[:len(le)-1], `"`) {
			return fmt.Errorf("histogram %q: bucket needs exactly the le label, got %q", p.fam, labels)
		}
		le = le[:len(le)-1]
		c, err := strconv.ParseInt(value, 10, 64)
		if err != nil || c < 0 {
			return fmt.Errorf("histogram %q: bucket count %q is not a non-negative integer", p.fam, value)
		}
		if len(p.counts) > 0 && c < p.counts[len(p.counts)-1] {
			return fmt.Errorf("histogram %q: cumulative bucket counts decrease at le=%q", p.fam, le)
		}
		if p.sawInf {
			return fmt.Errorf("histogram %q: bucket after le=\"+Inf\"", p.fam)
		}
		if le == "+Inf" {
			p.sawInf = true
		} else {
			b, err := strconv.ParseFloat(le, 64)
			if err != nil || math.IsNaN(b) || math.IsInf(b, 0) {
				return fmt.Errorf("histogram %q: bad le %q", p.fam, le)
			}
			if len(p.bounds) > 0 && b <= p.bounds[len(p.bounds)-1] {
				return fmt.Errorf("histogram %q: le bounds not strictly ascending at %q", p.fam, le)
			}
			p.bounds = append(p.bounds, b)
		}
		p.counts = append(p.counts, c)
		if exemplar != nil {
			p.exemplar = exemplar
		}
	case p.fam + "_sum":
		if labels != "" || exemplar != nil {
			return fmt.Errorf("histogram %q: _sum with labels or exemplar", p.fam)
		}
		if p.sumSet {
			return fmt.Errorf("histogram %q: duplicate _sum", p.fam)
		}
		v, err := parseValue(value)
		if err != nil {
			return fmt.Errorf("histogram %q: bad _sum %q", p.fam, value)
		}
		p.sum, p.sumSet = v, true
	case p.fam + "_count":
		if labels != "" || exemplar != nil {
			return fmt.Errorf("histogram %q: _count with labels or exemplar", p.fam)
		}
		if !p.sumSet {
			return fmt.Errorf("histogram %q: _count before _sum", p.fam)
		}
		if p.countSet {
			return fmt.Errorf("histogram %q: duplicate _count", p.fam)
		}
		v, err := strconv.ParseInt(value, 10, 64)
		if err != nil || v < 0 {
			return fmt.Errorf("histogram %q: _count %q is not a non-negative integer", p.fam, value)
		}
		p.count, p.countSet = v, true
	default:
		return fmt.Errorf("histogram %q: unexpected sample %q", p.fam, name)
	}
	p.samples++
	return nil
}

// parseValue parses a sample value, admitting the exposition spellings of
// the non-finite floats.
func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	if s == "" {
		return 0, fmt.Errorf("empty value")
	}
	return strconv.ParseFloat(s, 64)
}

// splitSample breaks a sample line into name, raw label block (without
// braces), value token and optional exemplar.
//
//	name{le="0.5"} 123 # {trace_id="ab12"} 0.4
func splitSample(line string) (name, labels, value string, exemplar *telemetry.Exemplar, err error) {
	rest := line
	if i := strings.IndexAny(rest, "{ "); i < 0 {
		return "", "", "", nil, fmt.Errorf("malformed sample %q", line)
	} else {
		name, rest = rest[:i], rest[i:]
	}
	if !validName(name) && !validName(strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_total"), "_bucket"), "_sum")) {
		return "", "", "", nil, fmt.Errorf("invalid sample name %q", name)
	}
	if strings.HasPrefix(rest, "{") {
		end := strings.Index(rest, "}")
		if end < 0 {
			return "", "", "", nil, fmt.Errorf("unterminated label block in %q", line)
		}
		labels = rest[1:end]
		rest = rest[end+1:]
	}
	if !strings.HasPrefix(rest, " ") {
		return "", "", "", nil, fmt.Errorf("missing value in %q", line)
	}
	rest = rest[1:]
	value, rest, _ = strings.Cut(rest, " ")
	if rest != "" {
		ex, err := parseExemplar(rest)
		if err != nil {
			return "", "", "", nil, err
		}
		exemplar = ex
	}
	return name, labels, value, exemplar, nil
}

// parseExemplar parses the OpenMetrics exemplar tail:
//
//	# {trace_id="ab12"} 0.4
func parseExemplar(s string) (*telemetry.Exemplar, error) {
	rest, ok := strings.CutPrefix(s, `# {trace_id="`)
	if !ok {
		return nil, fmt.Errorf("malformed exemplar %q", s)
	}
	id, rest, ok := strings.Cut(rest, `"`)
	if !ok || !strings.HasPrefix(rest, "} ") {
		return nil, fmt.Errorf("malformed exemplar %q", s)
	}
	v, err := parseValue(rest[2:])
	if err != nil {
		return nil, fmt.Errorf("bad exemplar value in %q", s)
	}
	return &telemetry.Exemplar{TraceID: id, Value: v}, nil
}

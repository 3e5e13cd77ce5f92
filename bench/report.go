package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// printRows prints one line per metric: <workload> <name> <value> <unit>.
func printRows(w io.Writer, res *result) {
	if res.EndToEnd != nil {
		for _, m := range endToEnd {
			fmt.Fprintf(w, "%s %s %g %s\n", res.Workload, m.Name, m.reported(res.EndToEnd[m.Name]), m.Unit)
		}
	}
	if res.PerLayer != nil {
		for _, m := range perLayer {
			fmt.Fprintf(w, "%s %s %g %s\n", res.Workload, m.Name, res.PerLayer[m.Name], m.Unit)
		}
	}
}

// report is the stamped artifact -report writes and -compare reads.
type report struct {
	CPUModel   string    `json:"cpu_model"`
	NProc      int       `json:"nproc"`
	GoMaxProcs int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	Commit     string    `json:"commit"`
	Seed       int64     `json:"seed"`
	Reps       int       `json:"reps"`
	RepSeconds float64   `json:"rep_seconds"`
	Clients    int       `json:"clients"`
	Trace      bool      `json:"trace"`
	Workloads  []*result `json:"workloads"`
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if name, ok := strings.CutPrefix(sc.Text(), "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

func writeReport(path string, o options, results []*result) error {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	data, err := json.MarshalIndent(report{
		CPUModel: cpuModel(), NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit, Seed: o.seed, Reps: o.reps,
		RepSeconds: o.seconds / float64(o.reps), Clients: numClients(), Trace: o.trace,
		Workloads: results,
	}, "", " ")
	if err != nil {
		return fmt.Errorf("bench: encode report: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("bench: write report: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench: write report: %w", err)
	}
	return nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: read report: %w", err)
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: read report %s: %w", path, err)
	}
	return &r, nil
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// driver uses for its spreads.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 {
		pos := float64(k*(len(s)+1)) / 4 // 1-based
		i := min(max(int(pos), 1), len(s)-1)
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the median;
// fewer than two values have none.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / m
}

// betterHalf returns the half of the repetitions on the metric's good side,
// the half whose median is the reported value.
func (m metricDef) betterHalf(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if m.Better == "higher" {
		slices.Reverse(s)
	}
	return s[:(len(s)+1)/2]
}

// compareReports prints, per workload and end-to-end metric, both reported
// values, the ratio b/a, the bound, the wider of the two spreads between
// the repetitions of the better half, and a verdict: worse when b's value is worse than a's by
// more than the bound, unresolved when the spread is wider than the bound
// (unless every repetition of b beats every repetition of a), ok
// otherwise. It reports whether any row is worse.
func compareReports(w io.Writer, pathA, pathB string) (anyWorse bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	byName := map[string]*result{}
	for _, res := range b.Workloads {
		byName[res.Workload] = res
	}
	fmt.Fprintf(w, "%-20s %-24s %14s %14s %9s %6s %7s  %s\n", "workload", "metric", "a (base)", "b", "b/a", "bound", "spread", "verdict")
	for _, ra := range a.Workloads {
		rb := byName[ra.Workload]
		if rb == nil || ra.EndToEnd == nil || rb.EndToEnd == nil {
			continue
		}
		for _, m := range endToEnd {
			xa, xb := ra.EndToEnd[m.Name], rb.EndToEnd[m.Name]
			ma, mb := m.reported(xa), m.reported(xb)
			worsening := (mb - ma) / ma
			beats := func(x, y float64) bool { return x < y }
			if m.Better == "higher" {
				worsening = -worsening
				beats = func(x, y float64) bool { return x > y }
			}
			sp := max(spread(m.betterHalf(xa)), spread(m.betterHalf(xb)))
			verdict := "ok"
			switch {
			case sp > m.Bound && !allBeat(xb, xa, beats):
				verdict = "unresolved"
			case worsening > m.Bound:
				verdict = "worse"
				anyWorse = true
			}
			fmt.Fprintf(w, "%-20s %-24s %14.6g %14.6g %9.4f %6.2f %7.4f  %s\n", ra.Workload, m.Name, ma, mb, mb/ma, m.Bound, sp, verdict)
		}
	}
	return anyWorse, nil
}

// allBeat reports whether every value of xs beats every value of ys.
func allBeat(xs, ys []float64, beats func(x, y float64) bool) bool {
	for _, x := range xs {
		for _, y := range ys {
			if !beats(x, y) {
				return false
			}
		}
	}
	return true
}

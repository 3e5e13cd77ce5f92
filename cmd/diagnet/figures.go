package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"diagnet/internal/experiments"
)

// runFigures regenerates the tables and figures of the DiagNet paper's
// evaluation section on the simulated deployment and prints them as text
// reports.
func runFigures(args []string) error {
	fs := newFlags("figures", "")
	profileName := fs.String("profile", "default", "experiment profile: quick, default or paper")
	fig := fs.String("fig", "all", "which figures to regenerate, comma-separated: 5, 6, 7, 8, 9, 10, ablation, hyper, availability, perservice, disentangle, seeds or all")
	outDir := fs.String("out", "", "optional directory to also write per-figure reports to")
	if err := parse(fs, args); err != nil {
		return err
	}

	var profile experiments.Profile
	switch *profileName {
	case "quick":
		profile = experiments.Quick()
	case "default":
		profile = experiments.Default()
	case "paper":
		profile = experiments.Paper()
	default:
		return usagef("unknown profile %q", *profileName)
	}

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "# "+format+"\n", args...)
	}
	// The lab is built on first use, by the first figure that needs one.
	var lab *experiments.Lab
	onLab := func(fig func(*experiments.Lab) report) func() report {
		return func() report {
			if lab == nil {
				lab = experiments.NewLab(profile, logf)
			}
			return fig(lab)
		}
	}
	// -fig all is fig5..fig10 and the ablation. The hyperparameter sweep
	// retrains the general model per variant, the disentanglement study
	// builds two extra pipelines and the robustness study one pipeline per
	// seed: those, and the availability and per-service tables, run only
	// when named.
	figs := []struct {
		key, name string
		inAll     bool
		run       func() report
	}{
		{"5", "fig5", true, onLab(func(l *experiments.Lab) report { return l.Fig5() })},
		{"6", "fig6", true, onLab(func(l *experiments.Lab) report { return l.Fig6() })},
		{"7", "fig7", true, onLab(func(l *experiments.Lab) report { return l.Fig7() })},
		{"8", "fig8", true, onLab(func(l *experiments.Lab) report { return l.Fig8() })},
		{"9", "fig9", true, onLab(func(l *experiments.Lab) report { return l.Fig9() })},
		{"10", "fig10", true, onLab(func(l *experiments.Lab) report { return l.Fig10() })},
		{"ablation", "ablation", true, onLab(func(l *experiments.Lab) report { return l.Ablation() })},
		{"hyper", "hyper", false, onLab(func(l *experiments.Lab) report { return l.Hyperparams() })},
		{"availability", "availability", false, onLab(func(l *experiments.Lab) report { return l.Availability() })},
		{"perservice", "perservice", false, onLab(func(l *experiments.Lab) report { return l.PerService() })},
		{"disentangle", "disentangle", false, func() report { return experiments.Disentangle(profile, logf) }},
		{"seeds", "seeds", false, func() report { return experiments.Robustness(profile, 3, logf) }},
	}
	keys := []string{"all"}
	for _, f := range figs {
		keys = append(keys, f.key)
	}
	want := map[string]bool{}
	for _, f := range strings.Split(*fig, ",") {
		f = strings.TrimSpace(f)
		if !slices.Contains(keys, f) {
			return usagef("-fig: no figure %q; the figures are %s", f, strings.Join(keys, ", "))
		}
		want[f] = true
	}
	for _, f := range figs {
		if !want[f.key] && !(f.inAll && want["all"]) {
			continue
		}
		r := f.run()
		text := r.String()
		fmt.Printf("==== %s (profile %s) ====\n%s\n", f.name, profile.Name, text)
		if *outDir == "" {
			continue
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		for _, file := range [][2]string{{".txt", text}, {".csv", r.CSV()}} {
			err := publish(filepath.Join(*outDir, f.name+file[0]), func(w io.Writer) error {
				_, err := io.WriteString(w, file[1])
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// report is what every figure and study returns.
type report interface {
	String() string
	CSV() string
}

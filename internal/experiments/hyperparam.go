package experiments

import (
	"fmt"
	"strings"
	"time"

	"diagnet/internal/core"
	"diagnet/internal/eval"
	"diagnet/internal/nn"
	"diagnet/internal/probe"
)

// HyperparamRow is one explored configuration (paper §III-C: "We explored
// several combinations of hyperparameters and kept the best configuration
// listed in Table I").
type HyperparamRow struct {
	Label    string
	Ops      int
	Filters  int
	AccKnown float64 // coarse accuracy, degraded test samples, known-region faults
	AccNew   float64 // same, hidden-region faults
	Recall1  float64 // combined Recall@1 of the full pipeline (general model)
	Recall5  float64
	Epochs   int
	Duration time.Duration
}

// HyperparamResult is the exploration table.
type HyperparamResult struct {
	Rows []HyperparamRow
}

// Hyperparams retrains the general model under alternative pooling-op sets
// and filter counts and evaluates each on the lab's test split (general
// model only — no per-service specialization — so rows are comparable at
// equal budget).
func (l *Lab) Hyperparams() *HyperparamResult {
	type variant struct {
		label     string
		ops       []string
		filters   int
		optimizer string
	}
	base := l.Profile.Config
	variants := []variant{
		{"Ω={avg}", []string{"avg"}, base.Filters, "sgd"},
		{"Ω={min,max}", []string{"min", "max"}, base.Filters, "sgd"},
		{"Ω={min,max,avg,var}", []string{"min", "max", "avg", "var"}, base.Filters, "sgd"},
		{"Ω=Table I (13 ops)", base.PoolOpNames, base.Filters, "sgd"},
		{"f=" + fmt.Sprint(base.Filters/3), base.PoolOpNames, base.Filters / 3, "sgd"},
		{"f=" + fmt.Sprint(base.Filters*2), base.PoolOpNames, base.Filters * 2, "sgd"},
		{"Adam instead of SGD", base.PoolOpNames, base.Filters, "adam"},
	}

	res := &HyperparamResult{}
	for vi, v := range variants {
		cfg := base
		cfg.PoolOpNames = v.ops
		cfg.Filters = v.filters
		cfg.Optimizer = v.optimizer
		l.logf("hyperparams: training variant %d/%d (%s)", vi+1, len(variants), v.label)
		start := time.Now()
		tr := core.TrainGeneral(l.Train, l.Known, cfg)
		row := HyperparamRow{
			Label:    v.label,
			Ops:      len(v.ops),
			Filters:  v.filters,
			Epochs:   tr.History.Epochs(),
			Duration: time.Since(start),
		}

		confKnown := eval.NewConfusion(int(probe.NumFamilies))
		confNew := eval.NewConfusion(int(probe.NumFamilies))
		var ranks []int
		deg := l.Test.Degraded()
		hidden := map[int]bool{}
		for _, r := range l.Hidden {
			hidden[r] = true
		}
		for i := range deg.Samples {
			s := &deg.Samples[i]
			probs := tr.Model.CoarsePredict(s.Features, l.Full)
			pred := nn.Argmax(probs)
			if hidden[s.FaultRegion] {
				confNew.Add(int(s.Family), pred)
			} else {
				confKnown.Add(int(s.Family), pred)
			}
			diag := tr.Model.Diagnose(s.Features, l.Full)
			ranks = append(ranks, eval.RankOf(diag.Final, s.Cause))
		}
		row.AccKnown = confKnown.Accuracy()
		row.AccNew = confNew.Accuracy()
		row.Recall1 = eval.RecallAtK(ranks, 1)
		row.Recall5 = eval.RecallAtK(ranks, 5)
		res.Rows = append(res.Rows, row)
	}
	return res
}

// String renders the exploration table.
func (r *HyperparamResult) String() string {
	var b strings.Builder
	b.WriteString("Hyperparameter exploration (general model; paper kept Table I's best)\n")
	t := newTable("variant", "|Ω|", "f", "acc known", "acc new", "R@1", "R@5", "epochs", "train time")
	for _, row := range r.Rows {
		t.addRow(row.Label, fmt.Sprint(row.Ops), fmt.Sprint(row.Filters),
			fmt.Sprintf("%.2f", row.AccKnown), fmt.Sprintf("%.2f", row.AccNew),
			pct(row.Recall1), pct(row.Recall5),
			fmt.Sprint(row.Epochs), row.Duration.Round(time.Millisecond).String())
	}
	b.WriteString(t.String())
	return b.String()
}

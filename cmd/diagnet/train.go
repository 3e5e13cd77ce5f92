package main

import (
	"fmt"
	"os"
	"slices"

	"diagnet"
	"diagnet/internal/eval"
)

// runDatagen generates a labeled dataset from the simulated multi-cloud
// deployment and writes it to a file for train.
func runDatagen(args []string) error {
	fs := newFlags("datagen", "")
	out := fs.String("out", "dataset.gob", "output file")
	csvOut := fs.String("csv", "", "also export the samples as CSV to this path")
	nominal := fs.Int("nominal", 4000, "approximate number of fault-free samples")
	faulty := fs.Int("faulty", 7000, "approximate number of fault-scenario samples")
	seed := fs.Int64("seed", 11, "generation seed")
	worldSeed := fs.Int64("world-seed", 1, "world topology seed")
	anomalies := fs.Bool("background-anomalies", false, "enable spurious background link anomalies (§II-B)")
	if err := parse(fs, args); err != nil {
		return err
	}

	world := diagnet.NewWorld(diagnet.WorldConfig{Seed: *worldSeed, BackgroundAnomalies: *anomalies})
	data := diagnet.Generate(diagnet.GenConfig{
		World:          world,
		NominalSamples: *nominal,
		FaultSamples:   *faulty,
		Seed:           *seed,
	})
	c := data.Count(diagnet.HiddenLandmarks())
	fmt.Fprintf(os.Stderr, "generated %d samples: %d nominal, %d degraded (%d near hidden landmarks)\n",
		c.Total, c.Nominal, c.Degraded, c.HiddenFaultDegraded)

	if err := publish(*out, data.Save); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	if *csvOut != "" {
		if err := publish(*csvOut, data.ExportCSV); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvOut)
	}
	return nil
}

// runTrain trains a general DiagNet model on a dataset from datagen and
// writes it as a bundle with no heads; with -bundle it also specializes a
// head per service (§IV-F) and writes general model and heads as a second
// bundle. diagnetd -model or -model-dir serves either file. It reports the
// general model's Recall@1..5 on the held-out split on stdout, overall and
// split by known/new landmarks; specializing leaves the general model
// alone, so the report holds for both files.
func runTrain(args []string) error {
	fs := newFlags("train", "")
	dataPath := fs.String("data", "dataset.gob", "dataset file from diagnet datagen")
	out := fs.String("out", "model.gob", "output file: the general model as a bundle with no heads")
	bundle := fs.String("bundle", "", "write general + specialized models as one bundle file")
	epochs := fs.Int("epochs", 0, "override training epochs (0 = Table I default)")
	seed := fs.Int64("seed", 1, "training seed")
	if err := parse(fs, args); err != nil {
		return err
	}

	data, err := load(*dataPath, diagnet.LoadDataset)
	if err != nil {
		return err
	}

	train, test := data.Split(0.8, diagnet.HiddenLandmarks(), 13)
	fmt.Fprintf(os.Stderr, "training on %d samples (%d held out for testing)\n", train.Len(), test.Len())

	cfg := diagnet.DefaultConfig()
	cfg.Seed = *seed
	if *epochs > 0 {
		cfg.Epochs = *epochs
	}
	res := diagnet.TrainGeneral(train, diagnet.KnownRegions(), cfg)
	fmt.Fprintf(os.Stderr, "general model trained: %d epochs, final val loss %.4f\n",
		res.History.Epochs(), last(res.History.ValLoss))
	if err := publish(*out, diagnet.NewBundle(res.Model).Save); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
	reportRecall(res.Model, test)

	if *bundle != "" {
		b := diagnet.NewBundle(res.Model)
		var ids []int
		for _, svc := range diagnet.Catalog() {
			ids = append(ids, svc.ID)
		}
		b.SpecializeAll(train, ids)
		if err := publish(*bundle, b.Save); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote bundle %s (%d specialized models)\n", *bundle, len(b.Specialized))
	}
	return nil
}

// reportRecall prints the model's Recall@1..5 over the degraded samples of
// test: all of them, those whose cause is near a landmark seen in training
// and those near a landmark hidden from it.
func reportRecall(model *diagnet.Model, test *diagnet.Dataset) {
	layout := diagnet.FullLayout()
	hidden := diagnet.HiddenLandmarks()
	var all, newRanks, knownRanks []int
	deg := test.Degraded()
	for i := range deg.Samples {
		s := &deg.Samples[i]
		diag := model.Diagnose(s.Features, layout)
		rank := eval.RankOf(diag.Final, s.Cause)
		all = append(all, rank)
		if !layout.IsLocal(s.Cause) && slices.Contains(hidden, layout.Landmarks[s.Cause/5]) {
			newRanks = append(newRanks, rank)
		} else {
			knownRanks = append(knownRanks, rank)
		}
	}
	report := func(name string, ranks []int) {
		fmt.Printf("%-22s n=%-5d", name, len(ranks))
		for k := 1; k <= 5; k++ {
			fmt.Printf("  R@%d %5.1f%%", k, 100*eval.RecallAtK(ranks, k))
		}
		fmt.Println()
	}
	report("all degraded samples", all)
	report("near known landmarks", knownRanks)
	report("near new landmarks", newRanks)
}

func last(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

// Command diagnet-train trains a general DiagNet model on a dataset
// produced by diagnet-datagen and writes it to disk as a bundle with no
// heads; with -bundle it also specializes a head per service (§IV-F) and
// writes general model and heads as a second bundle. diagnetd -model or
// -model-dir serves either file.
//
// Usage:
//
//	diagnet-train -data data.gob -out model.gob [-bundle bundle.gob] [-epochs 25]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"diagnet"
)

func main() {
	dataPath := flag.String("data", "dataset.gob", "dataset file from diagnet-datagen")
	out := flag.String("out", "model.gob", "output file: the general model as a bundle with no heads")
	bundle := flag.String("bundle", "", "write general + specialized models as one bundle file")
	epochs := flag.Int("epochs", 0, "override training epochs (0 = Table I default)")
	seed := flag.Int64("seed", 1, "training seed")
	flag.Parse()

	f, err := os.Open(*dataPath)
	if err != nil {
		log.Fatal(err)
	}
	data, err := diagnet.LoadDataset(f)
	f.Close()
	if err != nil {
		log.Fatal(err)
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
	if err := writeModel(res.Model, *out); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)

	if *bundle != "" {
		b := diagnet.NewBundle(res.Model)
		var ids []int
		for _, svc := range diagnet.Catalog() {
			ids = append(ids, svc.ID)
		}
		b.SpecializeAll(train, ids)
		f, err := os.Create(*bundle)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := b.Save(f); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote bundle %s (%d specialized models)\n", *bundle, len(b.Specialized))
	}
}

func writeModel(m *diagnet.Model, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return diagnet.NewBundle(m).Save(f)
}

func last(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return xs[len(xs)-1]
}

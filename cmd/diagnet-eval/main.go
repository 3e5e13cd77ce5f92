// Command diagnet-eval evaluates a trained model on the test split of a
// dataset: Recall@1..5 overall and split by known/new landmarks.
//
// Usage:
//
//	diagnet-eval -data data.gob -model model.gob
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"diagnet"
	"diagnet/internal/eval"
)

func main() {
	dataPath := flag.String("data", "dataset.gob", "dataset file from diagnet-datagen")
	modelPath := flag.String("model", "model.gob", "bundle file from diagnet-train; its general model is evaluated")
	flag.Parse()

	df, err := os.Open(*dataPath)
	if err != nil {
		log.Fatal(err)
	}
	data, err := diagnet.LoadDataset(df)
	df.Close()
	if err != nil {
		log.Fatal(err)
	}
	mf, err := os.Open(*modelPath)
	if err != nil {
		log.Fatal(err)
	}
	b, err := diagnet.LoadBundle(mf)
	mf.Close()
	if err != nil {
		log.Fatal(err)
	}
	model := b.General

	_, test := data.Split(0.8, diagnet.HiddenLandmarks(), 13)
	layout := diagnet.FullLayout()
	hidden := map[int]bool{}
	for _, r := range diagnet.HiddenLandmarks() {
		hidden[r] = true
	}

	var all, newRanks, knownRanks []int
	deg := test.Degraded()
	for i := range deg.Samples {
		s := &deg.Samples[i]
		diag := model.Diagnose(s.Features, layout)
		rank := eval.RankOf(diag.Final, s.Cause)
		all = append(all, rank)
		isNew := !layout.IsLocal(s.Cause) && hidden[layout.Landmarks[s.Cause/5]]
		if isNew {
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

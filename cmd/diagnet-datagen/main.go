// Command diagnet-datagen generates a labeled dataset from the simulated
// multi-cloud deployment and writes it to a file for diagnet-train /
// diagnet-eval.
//
// Usage:
//
//	diagnet-datagen -out data.gob [-nominal 4000] [-faulty 7000] [-seed 11]
package main

import (
	"bytes"
	"flag"
	"fmt"
	"log"
	"os"

	"diagnet"
	"diagnet/internal/durable"
)

func main() {
	out := flag.String("out", "dataset.gob", "output file")
	csvOut := flag.String("csv", "", "also export the samples as CSV to this path")
	nominal := flag.Int("nominal", 4000, "approximate number of fault-free samples")
	faulty := flag.Int("faulty", 7000, "approximate number of fault-scenario samples")
	seed := flag.Int64("seed", 11, "generation seed")
	worldSeed := flag.Int64("world-seed", 1, "world topology seed")
	anomalies := flag.Bool("background-anomalies", false, "enable spurious background link anomalies (§II-B)")
	flag.Parse()

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

	// Each file is encoded in memory and published whole: a failed write
	// exits non-zero, and a kill mid-write leaves no truncated file.
	var buf bytes.Buffer
	if err := data.Save(&buf); err != nil {
		log.Fatal(err)
	}
	if err := durable.WriteFile(*out, buf.Bytes()); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)

	if *csvOut != "" {
		buf.Reset()
		if err := data.ExportCSV(&buf); err != nil {
			log.Fatal(err)
		}
		if err := durable.WriteFile(*csvOut, buf.Bytes()); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *csvOut)
	}
}

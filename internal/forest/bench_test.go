package forest

import (
	"math/rand"
	"testing"
)

// benchTraining is a training set shaped like the auxiliary forest's fit
// in the benchmark's retrain workload (a third of its training split):
// 550 rows over 55 features, the first 12 the zero-filled metrics of
// hidden landmarks and every fourth of the others quantized to a few
// values (ties), labelled over 55 causes plus the unknown class, a third
// of the rows nominal. A cause the forest can see shifts its feature.
func benchTraining() (x [][]float64, labels []int, causes int) {
	rng := rand.New(rand.NewSource(7))
	const rows, features, hidden = 550, 55, 12
	causes = features
	x = make([][]float64, rows)
	labels = make([]int, rows)
	for i := range x {
		row := make([]float64, features)
		for j := hidden; j < features; j++ {
			if j%4 == 0 {
				row[j] = float64(rng.Intn(8))
			} else {
				row[j] = rng.NormFloat64()
			}
		}
		labels[i] = causes
		if rng.Intn(3) != 0 {
			labels[i] = rng.Intn(causes)
			if labels[i] >= hidden {
				row[labels[i]] += 3
			}
		}
		x[i] = row
	}
	return x, labels, causes
}

// BenchmarkFitExtensible fits the Table I forest (50 trees, depth 10) on
// benchTraining.
func BenchmarkFitExtensible(b *testing.B) {
	x, labels, causes := benchTraining()
	cfg := DefaultConfig()
	cfg.Seed = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		FitExtensible(x, labels, causes, cfg)
	}
}

package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"diagnet/internal/mat"
)

// tableINet builds the paper's exact architecture (Table I).
func tableINet(rng *rand.Rand) (*Network, *LandPool) {
	lp := NewLandPool(5, 24, 5, DefaultPoolOps(), rng)
	net := NewNetwork(
		lp,
		NewDense(lp.OutWidth(), 512, rng), NewReLU(),
		NewDense(512, 128, rng), NewReLU(),
		NewDense(128, 7, rng),
	)
	return net, lp
}

func benchBatch(rng *rand.Rand, n, ell int) (*mat.Matrix, []int) {
	x := mat.New(n, ell*5+5)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(7)
	}
	return x, labels
}

func BenchmarkLandPoolForward(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	lp := NewLandPool(5, 24, 5, DefaultPoolOps(), rng)
	x, _ := benchBatch(rng, 64, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lp.Forward(x)
	}
}

func BenchmarkLandPoolBackward(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	lp := NewLandPool(5, 24, 5, DefaultPoolOps(), rng)
	x, _ := benchBatch(rng, 64, 10)
	out := lp.Forward(x)
	dout := out.Clone()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lp.Backward(dout)
	}
}

func BenchmarkTableIForward(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	net, _ := tableINet(rng)
	x, _ := benchBatch(rng, 64, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Forward(x)
	}
}

// BenchmarkTableITrainStep is one minibatch of a fit, the step FitGroups
// runs: forward, loss and backward on the fit's workspace, then the SGD
// update. A warm step allocates nothing of its own: run with -benchmem
// -cpu 1,2 — what it reports at -cpu 2 is the matrix products' goroutine
// fan-out (mat's BenchmarkGemm).
func BenchmarkTableITrainStep(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	net, _ := tableINet(rng)
	x, labels := benchBatch(rng, 64, 7)
	tr := NewTrainer(net)
	fit, params := net.trainingView(new(Workspace)), net.Params()
	fit.SetTraining(true)
	lowest := fit.lowestTrainable()
	for i := 0; i < 2; i++ { // the first step overflows the workspace, the second's Reset grows it
		tr.step(fit, params, lowest, x, labels)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.step(fit, params, lowest, x, labels)
	}
}

// BenchmarkInputGradient is the serving pass (forward, then backward to the
// inputs) for a single diagnosis, which runs mat's scalar loops, and for a
// fused batch of 64, which runs its tiled kernel.
func BenchmarkInputGradient(b *testing.B) {
	for _, batch := range []int{1, 2, 3, 5, 7, 64} {
		b.Run(fmt.Sprintf("B%d", batch), func(b *testing.B) {
			rng := rand.New(rand.NewSource(5))
			net, _ := tableINet(rng)
			x, _ := benchBatch(rng, batch, 10)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.InputGradientBatch(x, nil)
			}
		})
	}
}

package nn

import (
	"math"
	"math/rand"
	"testing"

	"diagnet/internal/mat"
)

func TestDropoutIdentityAtInference(t *testing.T) {
	d := NewDropout(0.5, rand.New(rand.NewSource(1)))
	x := mat.FromRows([][]float64{{1, 2, 3, 4}})
	y := d.Forward(x) // training not set: inference mode
	if !mat.Equal(x, y, 0) {
		t.Fatal("inference dropout must be identity")
	}
	dx := d.Backward(x.Clone())
	if !mat.Equal(x, dx, 0) {
		t.Fatal("inference backward must be identity")
	}
}

func TestDropoutTrainingMasksAndScales(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := NewDropout(0.5, rng)
	d.SetTraining(true)
	x := mat.New(1, 10000)
	x.Fill(1)
	y := d.Forward(x)
	zeros, scaled := 0, 0
	for _, v := range y.Data {
		switch v {
		case 0:
			zeros++
		case 2: // 1/(1-0.5)
			scaled++
		default:
			t.Fatalf("unexpected activation %v", v)
		}
	}
	if zeros < 4500 || zeros > 5500 {
		t.Fatalf("dropped %d of 10000 at rate 0.5", zeros)
	}
	// Expected value is preserved (inverted dropout).
	var mean float64
	for _, v := range y.Data {
		mean += v
	}
	mean /= float64(len(y.Data))
	if math.Abs(mean-1) > 0.05 {
		t.Fatalf("mean activation %v, want ≈1", mean)
	}
	_ = scaled
	// Backward routes only through survivors, with the same scale.
	g := mat.New(1, 10000)
	g.Fill(1)
	dg := d.Backward(g)
	for i, v := range dg.Data {
		if y.Data[i] == 0 && v != 0 {
			t.Fatal("gradient leaked through dropped unit")
		}
		if y.Data[i] != 0 && v != 2 {
			t.Fatal("surviving gradient not scaled")
		}
	}
}

func TestDropoutRateValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewDropout(1.0, rand.New(rand.NewSource(1)))
}

func TestDropoutSpecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	net := NewNetwork(NewDense(4, 8, rng), NewReLU(), NewDropout(0.25, rng), NewDense(8, 2, rng))
	loaded := roundTrip(t, net)
	d, ok := loaded.Layers[2].(*Dropout)
	if !ok {
		t.Fatal("dropout layer lost in round trip")
	}
	if d.Rate != 0.25 {
		t.Fatalf("rate %v", d.Rate)
	}
	// Inference outputs match (dropout inactive).
	x := mat.New(2, 4)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	if !mat.Equal(net.Forward(x), loaded.Forward(x), 0) {
		t.Fatal("outputs differ")
	}
}

func TestTrainerTogglesTrainingMode(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	drop := NewDropout(0.3, rng)
	net := NewNetwork(NewDense(2, 8, rng), NewReLU(), drop, NewDense(8, 2, rng))
	x, labels := randBatch(rng, 50, 2, 2)
	tr := NewTrainer(net)
	tr.Fit(x, labels, nil, nil, TrainConfig{Epochs: 2, BatchSize: 10, Seed: 1})
	// After Fit the network must be back in inference mode: two forwards
	// agree exactly.
	a := net.Forward(x)
	b := net.Forward(x)
	if !mat.Equal(a, b, 0) {
		t.Fatal("network left in training mode after Fit")
	}
}

// Training with dropout still learns the XOR task.
func TestDropoutNetworkLearns(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := mat.New(400, 2)
	labels := make([]int, 400)
	for i := 0; i < 400; i++ {
		a, b := rng.Intn(2), rng.Intn(2)
		x.Set(i, 0, float64(a)+rng.NormFloat64()*0.05)
		x.Set(i, 1, float64(b)+rng.NormFloat64()*0.05)
		labels[i] = a ^ b
	}
	net := NewNetwork(NewDense(2, 32, rng), NewReLU(), NewDropout(0.2, rng), NewDense(32, 2, rng))
	tr := NewTrainer(net)
	tr.Opt = &SGD{LR: 0.2, Momentum: 0.9, Nesterov: true, ClipNorm: 5}
	tr.Fit(x, labels, nil, nil, TrainConfig{Epochs: 80, BatchSize: 32, Seed: 1})
	if acc := tr.Accuracy(x, labels); acc < 0.95 {
		t.Fatalf("XOR accuracy with dropout %.3f", acc)
	}
}

package nn

import (
	"math"
	"math/rand"
	"testing"

	"diagnet/internal/mat"
)

func TestAdamMatchesManualFirstSteps(t *testing.T) {
	p := newParam("w", 1, 1)
	o := NewAdam()
	var m, v float64
	w := 0.0
	for step := 1; step <= 5; step++ {
		g := float64(step) * 0.5
		p.grad().Data[0] = g
		o.Step([]*Param{p})
		m = 0.9*m + 0.1*g
		v = 0.999*v + 0.001*g*g
		mHat := m / (1 - math.Pow(0.9, float64(step)))
		vHat := v / (1 - math.Pow(0.999, float64(step)))
		w -= 0.001 * mHat / (math.Sqrt(vHat) + 1e-8)
		if math.Abs(p.Value.Data[0]-w) > 1e-12 {
			t.Fatalf("step %d: got %v want %v", step, p.Value.Data[0], w)
		}
	}
}

func TestAdamSkipsFrozen(t *testing.T) {
	p := newParam("w", 1, 1)
	p.Frozen = true
	p.grad().Data[0] = 10
	o := NewAdam()
	o.Step([]*Param{p})
	if p.Value.Data[0] != 0 {
		t.Fatal("frozen param moved")
	}
}

func TestAdamReset(t *testing.T) {
	p := newParam("w", 1, 1)
	p.grad().Data[0] = 1
	o := NewAdam()
	o.Step([]*Param{p})
	o.Reset()
	if o.step != 0 || o.m != nil || o.v != nil {
		t.Fatal("Reset incomplete")
	}
}

func TestAdamClipNorm(t *testing.T) {
	p := newParam("w", 1, 2)
	p.grad().Data[0], p.grad().Data[1] = 30, 40
	o := NewAdam()
	o.ClipNorm = 5
	o.Step([]*Param{p})
	// After clipping the gradient is (3, 4); first Adam step ≈ -lr·sign.
	if p.grad().Data[0] != 3 || p.grad().Data[1] != 4 {
		t.Fatalf("gradient not clipped: %v", p.Grad.Data)
	}
}

// Adam trains the XOR task as well as SGD does.
func TestAdamLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := mat.New(400, 2)
	labels := make([]int, 400)
	for i := 0; i < 400; i++ {
		a, b := rng.Intn(2), rng.Intn(2)
		x.Set(i, 0, float64(a)+rng.NormFloat64()*0.05)
		x.Set(i, 1, float64(b)+rng.NormFloat64()*0.05)
		labels[i] = a ^ b
	}
	net := NewNetwork(NewDense(2, 16, rng), NewReLU(), NewDense(16, 2, rng))
	tr := NewTrainer(net)
	tr.Opt = &Adam{LR: 0.01, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
	tr.Fit(x, labels, nil, nil, TrainConfig{Epochs: 60, BatchSize: 32, Seed: 1})
	if acc := tr.Accuracy(x, labels); acc < 0.98 {
		t.Fatalf("Adam XOR accuracy %.3f", acc)
	}
}

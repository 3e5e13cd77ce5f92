package nn

import (
	"math"
	"math/rand"
	"testing"

	"diagnet/internal/mat"
)

// lossOf runs a fresh forward pass and returns the cross-entropy loss.
func lossOf(net *Network, x *mat.Matrix, labels []int) float64 {
	var ce SoftmaxCrossEntropy
	loss, _ := ce.Loss(net.Forward(x), labels)
	return loss
}

// checkParamGradients compares analytic parameter gradients against central
// finite differences.
func checkParamGradients(t *testing.T, net *Network, x *mat.Matrix, labels []int, tol float64) {
	t.Helper()
	var ce SoftmaxCrossEntropy
	net.SetTraining(true) // parameter gradients accumulate only in training mode
	net.ZeroGrads()
	logits := net.Forward(x)
	_, dlogits := ce.Loss(logits, labels)
	net.Backward(dlogits)
	net.SetTraining(false)

	const h = 1e-5
	for pi, p := range net.Params() {
		for i := range p.Value.Data {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + h
			up := lossOf(net, x, labels)
			p.Value.Data[i] = orig - h
			down := lossOf(net, x, labels)
			p.Value.Data[i] = orig
			numeric := (up - down) / (2 * h)
			analytic := p.Grad.Data[i]
			if math.Abs(numeric-analytic) > tol*(1+math.Abs(numeric)) {
				t.Fatalf("param %d (%s) element %d: analytic %v vs numeric %v", pi, p.Name, i, analytic, numeric)
			}
		}
	}
}

// checkInputGradients compares analytic input gradients against central
// finite differences.
func checkInputGradients(t *testing.T, net *Network, x *mat.Matrix, labels []int, tol float64) {
	t.Helper()
	var ce SoftmaxCrossEntropy
	logits := net.Forward(x)
	_, dlogits := ce.Loss(logits, labels)
	dx := net.Backward(dlogits)

	const h = 1e-5
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + h
		up := lossOf(net, x, labels)
		x.Data[i] = orig - h
		down := lossOf(net, x, labels)
		x.Data[i] = orig
		numeric := (up - down) / (2 * h)
		if math.Abs(numeric-dx.Data[i]) > tol*(1+math.Abs(numeric)) {
			t.Fatalf("input element %d: analytic %v vs numeric %v", i, dx.Data[i], numeric)
		}
	}
}

func randBatch(rng *rand.Rand, n, cols, classes int) (*mat.Matrix, []int) {
	x := mat.New(n, cols)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64()
	}
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	return x, labels
}

func TestDenseGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := NewNetwork(NewDense(4, 3, rng))
	x, labels := randBatch(rng, 5, 4, 3)
	checkParamGradients(t, net, x, labels, 1e-5)
	checkInputGradients(t, net, x, labels, 1e-5)
}

func TestMLPGradients(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := NewNetwork(
		NewDense(6, 8, rng), NewReLU(),
		NewDense(8, 5, rng), NewReLU(),
		NewDense(5, 3, rng),
	)
	x, labels := randBatch(rng, 4, 6, 3)
	checkParamGradients(t, net, x, labels, 1e-4)
	checkInputGradients(t, net, x, labels, 1e-4)
}

// Each pooling op is exercised in isolation so a broken backward cannot
// hide behind the others.
func TestLandPoolGradientsPerOp(t *testing.T) {
	ops := append([]PoolOp{MinPool{}, MaxPool{}, AvgPool{}, VarPool{}},
		PercentilePool{P: 10}, PercentilePool{P: 50}, PercentilePool{P: 90})
	for _, op := range ops {
		op := op
		t.Run(op.Name(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(3))
			lp := NewLandPool(3, 4, 2, []PoolOp{op}, rng)
			net := NewNetwork(lp, NewDense(lp.OutWidth(), 3, rng))
			// 4 landmarks of 3 features + 2 local features = 14 columns.
			x, labels := randBatch(rng, 3, 4*3+2, 3)
			checkParamGradients(t, net, x, labels, 1e-4)
			checkInputGradients(t, net, x, labels, 1e-4)
		})
	}
}

func TestLandPoolGradientsFullStack(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	lp := NewLandPool(5, 6, 5, DefaultPoolOps(), rng)
	net := NewNetwork(
		lp,
		NewDense(lp.OutWidth(), 16, rng), NewReLU(),
		NewDense(16, 7, rng),
	)
	// 7 landmarks × 5 features + 5 local = 40 columns.
	x, labels := randBatch(rng, 2, 7*5+5, 7)
	checkParamGradients(t, net, x, labels, 2e-4)
	checkInputGradients(t, net, x, labels, 2e-4)
}

func TestLandPoolVariableLandmarkCount(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lp := NewLandPool(2, 3, 1, DefaultPoolOps(), rng)
	net := NewNetwork(lp, NewDense(lp.OutWidth(), 2, rng))
	// Same network consumes 3-landmark and 8-landmark inputs.
	for _, ell := range []int{1, 3, 8} {
		x, labels := randBatch(rng, 2, ell*2+1, 2)
		out := net.Forward(x)
		if out.Cols != 2 || out.Rows != 2 {
			t.Fatalf("ell=%d: output %dx%d", ell, out.Rows, out.Cols)
		}
		checkInputGradients(t, net, x, labels, 1e-4)
	}
}

func TestLandPoolRejectsBadWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	lp := NewLandPool(5, 4, 3, DefaultPoolOps(), rng)
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for incompatible width")
		}
	}()
	lp.Forward(mat.New(1, 12)) // 12-3=9 not divisible by 5
}

package nn

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"diagnet/internal/mat"
)

// attentionNet is a seeded DiagNet-shaped network: LandPool with the full Ω
// set (Table I), then Dense+ReLU and the logit layer. k features per
// landmark, 2 local features, 4 classes.
func attentionNet(seed int64, k int) *Network {
	rng := rand.New(rand.NewSource(seed))
	lp := NewLandPool(k, 5, 2, DefaultPoolOps(), rng)
	return NewNetwork(lp, NewDense(lp.OutWidth(), 16, rng), NewReLU(), NewDense(16, 4, rng))
}

func normalBatch(seed int64, rows, cols int) *mat.Matrix {
	x, _ := randBatch(rand.New(rand.NewSource(seed)), rows, cols, 1)
	return x
}

// idealLoss is L* = −log softmax(f(x))[target] of one row, computed from
// the raw logits with a log-sum-exp written here, so that the oracle
// shares only Forward with the analytic pass it checks.
func idealLoss(net *Network, x *mat.Matrix, row, target int) float64 {
	z := net.Forward(x).Row(row)
	max := z[0]
	for _, v := range z {
		max = math.Max(max, v)
	}
	var sum float64
	for _, v := range z {
		sum += math.Exp(v - max)
	}
	return max + math.Log(sum) - z[target]
}

// Eq. 1 takes γ̂ from the input gradient of L*; this is its independent
// oracle: central finite differences of L* against InputGradientBatch,
// within 1e-6 of each row's largest gradient entry.
func TestInputGradientMatchesFiniteDifferences(t *testing.T) {
	const k, h, tol = 3, 1e-5, 1e-6
	for _, ell := range []int{3, 7} {
		for _, b := range []int{1, 3} {
			net := attentionNet(21, k)
			x := normalBatch(int64(100*ell+b), b, ell*k+2)
			targets := make([]int, b)
			for i := range targets {
				targets[i] = -1
			}
			grads, _ := net.InputGradientBatch(x, targets) // resolves targets to the arg-max
			for i := 0; i < b; i++ {
				var scale float64
				for _, g := range grads.Row(i) {
					scale = math.Max(scale, math.Abs(g))
				}
				if scale == 0 {
					t.Fatalf("ell=%d b=%d row %d: all-zero gradient", ell, b, i)
				}
				for j := 0; j < x.Cols; j++ {
					orig := x.At(i, j)
					x.Set(i, j, orig+h)
					up := idealLoss(net, x, i, targets[i])
					x.Set(i, j, orig-h)
					down := idealLoss(net, x, i, targets[i])
					x.Set(i, j, orig)
					numeric := (up - down) / (2 * h)
					if diff := math.Abs(numeric - grads.At(i, j)); diff > tol*scale {
						t.Fatalf("ell=%d b=%d row %d feature %d: analytic %v vs numeric %v (diff %.3g, scale %.3g)",
							ell, b, i, j, grads.At(i, j), numeric, diff, scale)
					}
				}
			}
		}
	}
}

// No layer mixes rows, so row i of a b-row pass is bit-identical to the
// one-row pass on row i.
func TestInputGradientBatchRowsMatchSingleRowPass(t *testing.T) {
	net := attentionNet(22, 3)
	x := normalBatch(23, 5, 6*3+2)
	grads, probs := net.InputGradientBatch(x, nil)
	for i := 0; i < x.Rows; i++ {
		one := mat.FromSlice(1, x.Cols, append([]float64(nil), x.Row(i)...))
		g1, p1 := net.InputGradientBatch(one, []int{-1})
		for j, g := range g1.Row(0) {
			if g != grads.At(i, j) {
				t.Fatalf("row %d gradient %d: %v in the batch, %v alone", i, j, grads.At(i, j), g)
			}
		}
		for j, p := range p1.Row(0) {
			if p != probs.At(i, j) {
				t.Fatalf("row %d prob %d: %v in the batch, %v alone", i, j, probs.At(i, j), p)
			}
		}
	}
}

// paramBits is the bit pattern of every parameter's value and, where
// present, gradient.
func paramBits(net *Network) []uint64 {
	var bits []uint64
	for _, p := range net.Params() {
		for _, m := range []*mat.Matrix{p.Value, p.Grad} {
			if m == nil {
				continue
			}
			for _, v := range m.Data {
				bits = append(bits, math.Float64bits(v))
			}
		}
	}
	return bits
}

// A view aliases the source's weights, holds no gradient, and an inference
// pass on it — or on the source — writes no Param: values and, where
// present, gradients are bit-identical before and after.
func TestViewSharesWeightsAndLeavesSourceUntouched(t *testing.T) {
	net := attentionNet(24, 3)
	x := normalBatch(25, 4, 5*3+2)
	labels := []int{0, 1, 2, 3}
	NewTrainer(net).Fit(x, labels, nil, nil, TrainConfig{Epochs: 1, BatchSize: 2}) // gives the source gradients
	before := paramBits(net)

	v := net.View()
	src, dst := net.Params(), v.Params()
	if len(src) != len(dst) {
		t.Fatalf("view has %d params, source %d", len(dst), len(src))
	}
	for i := range src {
		if src[i].Grad == nil {
			t.Fatalf("param %d: trained source has no gradient", i)
		}
		if dst[i] == src[i] || dst[i].Grad != nil {
			t.Fatalf("param %d: view must own its Param and carry no gradient", i)
		}
		if &dst[i].Value.Data[0] != &src[i].Value.Data[0] {
			t.Fatalf("param %d: view copied the weights", i)
		}
		if dst[i].Frozen != src[i].Frozen || dst[i].Name != src[i].Name {
			t.Fatalf("param %d: view lost name or freeze flag", i)
		}
	}

	wantG, wantP := net.InputGradientBatch(x, nil)
	gotG, gotP := v.InputGradientBatch(x, nil)
	if !mat.Equal(wantG, gotG, 0) || !mat.Equal(wantP, gotP, 0) || !mat.Equal(net.Predict(x), v.Predict(x), 0) {
		t.Fatal("view and source disagree")
	}
	for i, p := range dst {
		if p.Grad != nil {
			t.Fatalf("param %d: inference pass gave the view a gradient", i)
		}
	}
	if !slices.Equal(before, paramBits(net)) {
		t.Fatal("inference pass wrote a parameter of the source network")
	}
}

// Views of one network run concurrently (under -race this is the proof
// that an inference pass writes nothing shared).
func TestViewsRunConcurrently(t *testing.T) {
	net := attentionNet(26, 3)
	x := normalBatch(27, 3, 4*3+2)
	want, _ := net.View().InputGradientBatch(x, nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v := net.View()
			for n := 0; n < 20; n++ {
				if got, _ := v.InputGradientBatch(x, nil); !mat.Equal(want, got, 0) {
					t.Error("concurrent view disagrees with the serial pass")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// A network built, loaded or cloned only to serve holds no gradient
// matrices; the first training pass allocates them.
func TestGradAllocatedOnFirstTrainingUse(t *testing.T) {
	net := attentionNet(28, 3)
	loaded := roundTrip(t, net)
	x := normalBatch(29, 4, 5*3+2)
	for _, n := range []*Network{net, loaded, net.Clone()} {
		n.InputGradientBatch(x, nil)
		for i, p := range n.Params() {
			if p.Grad != nil {
				t.Fatalf("param %d has a gradient before any training", i)
			}
		}
	}
	NewTrainer(loaded).Fit(x, []int{0, 1, 2, 3}, nil, nil, TrainConfig{Epochs: 1, BatchSize: 2})
	for i, p := range loaded.Params() {
		if p.Grad == nil || p.Grad.Rows != p.Value.Rows || p.Grad.Cols != p.Value.Cols {
			t.Fatalf("param %d: no gradient of the value's shape after Fit", i)
		}
	}
}

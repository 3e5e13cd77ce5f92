package nn

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"diagnet/internal/mat"
)

// FitGroups must accept groups of different widths when the network starts
// with a LandPool layer (the landmark-dropout augmentation path).
func TestFitGroupsMixedWidths(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	lp := NewLandPool(2, 4, 1, DefaultPoolOps(), rng)
	net := NewNetwork(lp, NewDense(lp.OutWidth(), 8, rng), NewReLU(), NewDense(8, 2, rng))

	makeGroup := func(ell, n int, seed int64) Group {
		r := rand.New(rand.NewSource(seed))
		x := mat.New(n, ell*2+1)
		labels := make([]int, n)
		for i := 0; i < n; i++ {
			cls := r.Intn(2)
			labels[i] = cls
			row := x.Row(i)
			for j := range row {
				row[j] = r.NormFloat64() * 0.3
			}
			if cls == 1 {
				// Make one landmark's first feature large: learnable via
				// max pooling at any ell.
				row[r.Intn(ell)*2] += 4
			}
		}
		return Group{X: x, Labels: labels}
	}

	g3 := makeGroup(3, 200, 2)
	g6 := makeGroup(6, 200, 3)
	tr := NewTrainer(net)
	tr.Opt = &SGD{LR: 0.1, Momentum: 0.9, Nesterov: true, ClipNorm: 5}
	hist := tr.FitGroups([]Group{g3, g6}, nil, nil, TrainConfig{Epochs: 25, BatchSize: 32, Seed: 4})
	if hist.Epochs() != 25 {
		t.Fatalf("epochs %d", hist.Epochs())
	}
	// The same network must classify both widths well.
	for _, g := range []Group{g3, g6} {
		if acc := tr.Accuracy(g.X, g.Labels); acc < 0.9 {
			t.Fatalf("accuracy %.2f on width-%d group", acc, g.X.Cols)
		}
	}
}

func TestWeightedLossPrioritizesRareClass(t *testing.T) {
	var ce SoftmaxCrossEntropy
	logits := mat.FromRows([][]float64{{0, 0}, {0, 0}})
	labels := []int{0, 1}
	// Uniform weights: gradient symmetric.
	_, g0 := ce.WeightedLoss(nil, logits, labels, nil)
	// Class 1 weighted 3×: its row's gradient grows relative to class 0's.
	_, g1 := ce.WeightedLoss(nil, logits, labels, []float64{1, 3})
	ratio0 := math.Abs(g1.At(0, 0)) / math.Abs(g0.At(0, 0))
	ratio1 := math.Abs(g1.At(1, 1)) / math.Abs(g0.At(1, 1))
	if !(ratio1 > ratio0) {
		t.Fatalf("weighting did not shift gradient: %v vs %v", ratio0, ratio1)
	}
}

func TestWeightedLossMatchesUnweighted(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	logits := mat.New(10, 3)
	for i := range logits.Data {
		logits.Data[i] = rng.NormFloat64()
	}
	labels := make([]int, 10)
	for i := range labels {
		labels[i] = rng.Intn(3)
	}
	var ce SoftmaxCrossEntropy
	l0, g0 := ce.Loss(nil, logits, labels)
	l1, g1 := ce.WeightedLoss(nil, logits, labels, []float64{1, 1, 1})
	if math.Abs(l0-l1) > 1e-12 || !mat.Equal(g0, g1, 1e-12) {
		t.Fatal("unit weights must equal unweighted loss")
	}
}

func TestWeightedLossBadWeightsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	var ce SoftmaxCrossEntropy
	ce.WeightedLoss(nil, mat.New(1, 3), []int{0}, []float64{1})
}

func TestSGDClipNorm(t *testing.T) {
	p := newParam("w", 1, 2)
	p.grad().Data[0], p.grad().Data[1] = 30, 40 // norm 50
	o := &SGD{LR: 1, ClipNorm: 5}
	o.Step([]*Param{p})
	// Clipped gradient: (3, 4); update = -lr·g.
	if math.Abs(p.Value.Data[0]+3) > 1e-12 || math.Abs(p.Value.Data[1]+4) > 1e-12 {
		t.Fatalf("clipped update wrong: %v", p.Value.Data)
	}
}

func TestSGDClipNormIgnoresFrozen(t *testing.T) {
	frozen := newParam("f", 1, 1)
	frozen.Frozen = true
	frozen.grad().Data[0] = 1e6 // must not count toward the norm
	live := newParam("w", 1, 1)
	live.grad().Data[0] = 3
	o := &SGD{LR: 1, ClipNorm: 5}
	o.Step([]*Param{frozen, live})
	if live.Value.Data[0] != -3 {
		t.Fatalf("frozen grad affected clipping: %v", live.Value.Data[0])
	}
	if frozen.Value.Data[0] != 0 {
		t.Fatal("frozen param moved")
	}
}

func TestSGDResetClearsState(t *testing.T) {
	p := newParam("w", 1, 1)
	o := NewSGD()
	p.grad().Data[0] = 1
	o.Step([]*Param{p})
	o.Reset()
	if o.step != 0 || o.velocity != nil {
		t.Fatal("Reset incomplete")
	}
}

func TestHistoryEpochs(t *testing.T) {
	h := &History{TrainLoss: []float64{1, 0.5, 0.3}}
	if h.Epochs() != 3 {
		t.Fatal("Epochs wrong")
	}
}

// TestOnEpochHook checks the per-epoch callback fires once per epoch and
// can stop training early.
func TestOnEpochHook(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := NewNetwork(NewDense(3, 4, rng), NewReLU(), NewDense(4, 2, rng))
	x := mat.New(8, 3)
	labels := make([]int, 8)
	for i := 0; i < 8; i++ {
		for j := 0; j < 3; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		labels[i] = i % 2
	}
	var epochs []int
	h := NewTrainer(net).Fit(x, labels, nil, nil, TrainConfig{
		Epochs: 10, BatchSize: 4,
		OnEpoch: func(epoch int, hist *History) bool {
			epochs = append(epochs, epoch)
			return epoch < 2 // stop after the 3rd epoch
		},
	})
	if len(epochs) != 3 || epochs[2] != 2 {
		t.Fatalf("hook epochs %v, want [0 1 2]", epochs)
	}
	if h.Epochs() != 3 {
		t.Fatalf("trained %d epochs, want 3", h.Epochs())
	}
}

// After Fit the network is back in inference mode: a backward pass over it
// writes no gradient.
func TestTrainerTogglesTrainingMode(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	net := NewNetwork(NewDense(2, 8, rng), NewReLU(), NewDense(8, 2, rng))
	x, labels := randBatch(rng, 50, 2, 2)
	NewTrainer(net).Fit(x, labels, nil, nil, TrainConfig{Epochs: 2, BatchSize: 10, Seed: 1})
	before := paramBits(net)
	net.InputGradientBatch(x, nil)
	if !slices.Equal(before, paramBits(net)) {
		t.Fatal("network left in training mode after Fit: a backward pass wrote its gradients")
	}
}

// backwardCounter counts the Backward calls that reach a layer.
type backwardCounter struct {
	Layer
	calls int
}

func (c *backwardCounter) Backward(dout *mat.Matrix) *mat.Matrix {
	c.calls++
	return c.Layer.Backward(dout)
}

// A fit never touches a frozen parameter — its matrices may be the ones a
// served model is being read through: no gradient is allocated for it, its
// value is neither updated nor rewritten by the best-weights restore, and
// the backward pass stops at the lowest trainable layer. What the fit does
// to the trainable layers is exactly what fitting them alone on the frozen
// layers' activations does, to the bit.
func TestFitNeverTouchesFrozenParams(t *testing.T) {
	net := attentionNet(31, 3) // LandPool, Dense, ReLU, Dense
	frozen := NewNetwork(net.Layers[0], net.Layers[1], net.Layers[2])
	for _, p := range frozen.Params() {
		p.Frozen = true
	}
	before := paramBits(frozen)
	head := NewNetwork(net.Layers[3]).Clone()
	pool, first := &backwardCounter{Layer: net.Layers[0]}, &backwardCounter{Layer: net.Layers[1]}
	last := &backwardCounter{Layer: net.Layers[3]}
	net.Layers[0], net.Layers[1], net.Layers[3] = pool, first, last

	rng := rand.New(rand.NewSource(32))
	x, labels := randBatch(rng, 96, 7*3+2, 4)
	valX, valLabels := randBatch(rng, 32, 7*3+2, 4)
	cfg := TrainConfig{Epochs: 4, BatchSize: 16, Seed: 33}
	NewTrainer(net).Fit(x, labels, valX, valLabels, cfg)

	if pool.calls != 0 || first.calls != 0 || last.calls == 0 {
		t.Fatalf("backward reached the frozen LandPool %d times and the frozen Dense %d times (the trainable layer %d)", pool.calls, first.calls, last.calls)
	}
	for i, p := range frozen.Params() {
		if p.Grad != nil {
			t.Fatalf("frozen param %d was given a gradient", i)
		}
	}
	if !slices.Equal(before, paramBits(frozen)) {
		t.Fatal("the fit wrote a frozen parameter")
	}

	features := frozen.View()
	NewTrainer(head).Fit(features.Forward(x), labels, features.Forward(valX), valLabels, cfg)
	for i, p := range head.Params() {
		got := last.Layer.Params()[i]
		for j, v := range p.Value.Data {
			if math.Float64bits(v) != math.Float64bits(got.Value.Data[j]) {
				t.Fatalf("head param %d[%d]: %v fitted over the frozen layers, %v fitted alone on their activations", i, j, got.Value.Data[j], v)
			}
		}
	}
}

// allocated returns how many heap objects, and bytes, a call of the
// function prepare returns allocates: the fewest of five calls, each
// prepared outside the measurement, so that what the runtime allocates
// now and then meanwhile (its scavenger's timers, a new thread) does not
// count.
func allocated(prepare func() func()) (objects, bytes uint64) {
	objects, bytes = math.MaxUint64, math.MaxUint64
	for range 5 {
		f := prepare()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		objects, bytes = min(objects, after.Mallocs-before.Mallocs), min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	return objects, bytes
}

// A fit's memory is its workspace and state it allocates once. The first
// epoch sizes the workspace for the minibatches, and the first validation
// pass, larger than a minibatch, overflows it once — the next Reset grows
// it. From then on an epoch allocates nothing: a 4-epoch fit allocates no
// more than a 2-epoch one, apart from the growth of its History.
func TestFitAllocatesOnlyInItsFirstEpochs(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x, labels := randBatch(rng, 200, 7*3+2, 4)
	valX, valLabels := randBatch(rng, 40, 7*3+2, 4)
	// Each trainer is built before its measurement: NewDense names its
	// parameters with fmt.Sprintf, whose printers come from a sync.Pool
	// that a GC empties and that -race drops puts from at random, so
	// building the network inside it counted a new printer now and then.
	fit := func(epochs int) (objects, bytes uint64) {
		return allocated(func() func() {
			tr := NewTrainer(attentionNet(42, 3))
			return func() { tr.Fit(x, labels, valX, valLabels, TrainConfig{Epochs: epochs, BatchSize: 16, Seed: 43}) }
		})
	}
	history := func(epochs int) (objects, bytes uint64) {
		return allocated(func() func() {
			return func() {
				h := &History{}
				for i := 0; i < epochs; i++ {
					h.TrainLoss, h.ValLoss = append(h.TrainLoss, 0), append(h.ValLoss, 0)
				}
			}
		})
	}
	n2, b2 := fit(2)
	n4, b4 := fit(4)
	hn2, hb2 := history(2)
	hn4, hb4 := history(4)
	if n4-(hn4-hn2) > n2 || b4-(hb4-hb2) > b2 {
		t.Fatalf("a 4-epoch fit allocates %d objects (%d B), a 2-epoch fit %d (%d B); History's growth is %d (%d B)",
			n4, b4, n2, b2, hn4-hn2, hb4-hb2)
	}
}

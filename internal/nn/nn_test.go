package nn

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"diagnet/internal/mat"
)

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	logits := mat.New(10, 7)
	for i := range logits.Data {
		logits.Data[i] = rng.NormFloat64() * 10
	}
	p := softmaxInto(mat.New(logits.Rows, logits.Cols), logits)
	for i := 0; i < p.Rows; i++ {
		var s float64
		for _, v := range p.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("probability out of range: %v", v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxNumericallyStable(t *testing.T) {
	logits := mat.FromRows([][]float64{{1000, 1001, 999}})
	p := softmaxInto(mat.New(logits.Rows, logits.Cols), logits)
	for _, v := range p.Row(0) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("softmax overflow: %v", p.Row(0))
		}
	}
	if Argmax(p.Row(0)) != 1 {
		t.Fatal("wrong argmax under large logits")
	}
}

func TestLossMatchesManual(t *testing.T) {
	logits := mat.FromRows([][]float64{{0, 0, 0}})
	var ce SoftmaxCrossEntropy
	loss, grad := ce.Loss(logits, []int{2})
	if math.Abs(loss-math.Log(3)) > 1e-12 {
		t.Fatalf("loss = %v, want ln 3", loss)
	}
	// grad = softmax - onehot = (1/3, 1/3, 1/3-1)
	want := []float64{1. / 3, 1. / 3, 1./3 - 1}
	for j, v := range grad.Row(0) {
		if math.Abs(v-want[j]) > 1e-12 {
			t.Fatalf("grad[%d] = %v, want %v", j, v, want[j])
		}
	}
}

func TestLossLabelOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	var ce SoftmaxCrossEntropy
	ce.Loss(mat.New(1, 3), []int{3})
}

func TestReLUForwardBackward(t *testing.T) {
	r := NewReLU()
	x := mat.FromRows([][]float64{{-1, 0, 2}})
	y := r.Forward(x)
	if y.At(0, 0) != 0 || y.At(0, 1) != 0 || y.At(0, 2) != 2 {
		t.Fatalf("ReLU forward = %v", y.Data)
	}
	dout := mat.FromRows([][]float64{{5, 5, 5}})
	dx := r.Backward(dout)
	if dx.At(0, 0) != 0 || dx.At(0, 1) != 0 || dx.At(0, 2) != 5 {
		t.Fatalf("ReLU backward = %v", dx.Data)
	}
	// One behaviour: both passes work in place and return their argument.
	if y != x || dx != dout {
		t.Fatal("ReLU must rectify in place and return the matrix it was given")
	}
}

// A small MLP must be able to learn a nonlinear decision boundary (XOR).
func TestTrainerLearnsXOR(t *testing.T) {
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
	tr.Opt = &SGD{LR: 0.2, Momentum: 0.9, Nesterov: true, ClipNorm: 5}
	hist := tr.Fit(x, labels, nil, nil, TrainConfig{Epochs: 60, BatchSize: 32, Seed: 1})
	if acc := tr.Accuracy(x, labels); acc < 0.98 {
		t.Fatalf("XOR accuracy %.3f after %d epochs (final loss %.4f)", acc, hist.Epochs(), hist.TrainLoss[len(hist.TrainLoss)-1])
	}
}

func TestTrainingLossDecreases(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, labels := randBatch(rng, 300, 5, 3)
	// Make the labels learnable: class = argmax of first 3 features.
	for i := 0; i < x.Rows; i++ {
		labels[i] = Argmax(x.Row(i)[:3])
	}
	net := NewNetwork(NewDense(5, 12, rng), NewReLU(), NewDense(12, 3, rng))
	tr := NewTrainer(net)
	hist := tr.Fit(x, labels, nil, nil, TrainConfig{Epochs: 15, BatchSize: 32, Seed: 2})
	first, last := hist.TrainLoss[0], hist.TrainLoss[len(hist.TrainLoss)-1]
	if last >= first {
		t.Fatalf("loss did not decrease: %v -> %v", first, last)
	}
}

func TestEarlyStoppingRestoresBestWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x, labels := randBatch(rng, 200, 4, 2)
	for i := 0; i < x.Rows; i++ {
		if x.At(i, 0) > 0 {
			labels[i] = 1
		} else {
			labels[i] = 0
		}
	}
	vx, vlabels := randBatch(rng, 50, 4, 2)
	for i := 0; i < vx.Rows; i++ {
		if vx.At(i, 0) > 0 {
			vlabels[i] = 1
		} else {
			vlabels[i] = 0
		}
	}
	net := NewNetwork(NewDense(4, 8, rng), NewReLU(), NewDense(8, 2, rng))
	tr := NewTrainer(net)
	hist := tr.Fit(x, labels, vx, vlabels, TrainConfig{Epochs: 40, BatchSize: 16, Patience: 3, Seed: 3})
	if hist.Epochs() > 40 {
		t.Fatal("ran too many epochs")
	}
	got := tr.Evaluate(vx, vlabels)
	best := hist.ValLoss[hist.BestEpoch]
	if math.Abs(got-best) > 1e-9 {
		t.Fatalf("restored val loss %v, best recorded %v", got, best)
	}
}

func TestFrozenParamsDoNotMove(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d1 := NewDense(3, 4, rng)
	d2 := NewDense(4, 2, rng)
	net := NewNetwork(d1, NewReLU(), d2)
	d1.W.Frozen = true
	d1.B.Frozen = true
	before := append([]float64(nil), d1.W.Value.Data...)
	x, labels := randBatch(rng, 50, 3, 2)
	NewTrainer(net).Fit(x, labels, nil, nil, TrainConfig{Epochs: 3, BatchSize: 10, Seed: 4})
	for i, v := range d1.W.Value.Data {
		if v != before[i] {
			t.Fatal("frozen weights changed during training")
		}
	}
}

// roundTrip rebuilds net from the gob encoding of its Wire form, as a
// model file stores it.
func roundTrip(t *testing.T, net *Network) *Network {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(net.Wire()); err != nil {
		t.Fatal(err)
	}
	var w Wire
	if err := gob.NewDecoder(&buf).Decode(&w); err != nil {
		t.Fatal(err)
	}
	loaded, err := w.Network()
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	lp := NewLandPool(5, 8, 5, DefaultPoolOps(), rng)
	net := NewNetwork(lp, NewDense(lp.OutWidth(), 16, rng), NewReLU(), NewDense(16, 7, rng))
	lp.Kernel.Frozen = true

	loaded := roundTrip(t, net)
	x, _ := randBatch(rng, 3, 7*5+5, 7)
	a := net.Forward(x)
	b := loaded.Forward(x)
	if !mat.Equal(a, b, 0) {
		t.Fatal("loaded network produces different outputs")
	}
	if !loaded.Params()[0].Frozen {
		t.Fatal("freeze flag lost in round trip")
	}
}

// A Wire that does not describe a network is an error, not a panic: a
// malformed model file must not crash the process that loads it.
func TestLoadRejectsMalformedSnapshots(t *testing.T) {
	valid := func() Wire {
		rng := rand.New(rand.NewSource(3))
		lp := NewLandPool(5, 4, 2, DefaultPoolOps()[:3], rng)
		return NewNetwork(lp, NewDense(lp.OutWidth(), 6, rng), NewReLU(), NewDropout(0.1, rng), NewDense(6, 3, rng)).Wire()
	}
	set := func(w *Wire, layer int, key string, v int) {
		sw := &w.Specs[layer]
		sw.Ints[slices.Index(sw.Keys, key)] = v
	}
	for name, spoil := range map[string]func(w *Wire){
		"short freeze list":       func(w *Wire) { w.Frozen = w.Frozen[:0] },
		"negative dimension":      func(w *Wire) { set(w, 4, "out", -3) },
		"zero filters":            func(w *Wire) { set(w, 0, "f", 0) },
		"negative local features": func(w *Wire) { set(w, 0, "local", -1) },
		"keys without values":     func(w *Wire) { w.Specs[0].Ints = w.Specs[0].Ints[:1] },
		"unknown layer":           func(w *Wire) { w.Specs[2].Kind = "conv" },
		"unknown pool op":         func(w *Wire) { w.Specs[0].Strings[1] = "median" },
		"percentile above 100":    func(w *Wire) { w.Specs[0].Strings[1] = "p150" },
		"dropout rate of one":     func(w *Wire) { w.Specs[3].Strings = []string{"1"} },
		"dense after wrong width": func(w *Wire) { set(w, 4, "in", 5) },
		"short weight":            func(w *Wire) { w.Values[2] = w.Values[2][:7] },
		"missing params":          func(w *Wire) { w.Values, w.Frozen = w.Values[:5], w.Frozen[:5] },
		"extra params":            func(w *Wire) { w.Values, w.Frozen = append(w.Values, []float64{1}), append(w.Frozen, false) },
	} {
		w := valid()
		if _, err := w.Network(); err != nil {
			t.Fatalf("the valid wire does not load: %v", err)
		}
		spoil(&w)
		if _, err := w.Network(); err == nil {
			t.Errorf("%s: loaded without an error", name)
		}
	}
}

// A network's Wire form rebuilds it with its freeze flags into matrices of
// its own, and encodes to the same bytes every time (a LayerSpec would
// not: gob walks its Ints in map order).
func TestWireRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	lp := NewLandPool(5, 8, 5, DefaultPoolOps(), rng)
	net := NewNetwork(lp, NewDense(lp.OutWidth(), 16, rng), NewReLU(), NewDense(16, 7, rng))
	lp.Kernel.Frozen = true
	encode := func() []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(net.Wire()); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := encode()
	for i := 0; i < 20; i++ {
		if !bytes.Equal(first, encode()) {
			t.Fatalf("encoding %d differs from the first", i)
		}
	}
	loaded, err := net.Wire().Network()
	if err != nil {
		t.Fatal(err)
	}
	x, _ := randBatch(rng, 3, 7*5+5, 7)
	if !mat.Equal(net.Forward(x), loaded.Forward(x), 0) {
		t.Fatal("the rebuilt network produces different outputs")
	}
	for i, p := range loaded.Params() {
		if src := net.Params()[i]; p.Frozen != src.Frozen || &p.Value.Data[0] == &src.Value.Data[0] {
			t.Fatalf("param %d: want the source's freeze flag on a copy of its values", i)
		}
	}
}

// A Wire fresh from the decoder gives its values to the network it builds:
// each parameter is a matrix over the decoded slice, not a second copy.
func TestDecodedWireIsAdopted(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	lp := NewLandPool(5, 4, 2, DefaultPoolOps()[:3], rng)
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(NewNetwork(lp, NewDense(lp.OutWidth(), 3, rng)).Wire()); err != nil {
		t.Fatal(err)
	}
	var w Wire
	if err := gob.NewDecoder(&buf).Decode(&w); err != nil {
		t.Fatal(err)
	}
	net, err := w.Network()
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range net.Params() {
		if &p.Value.Data[0] != &w.Values[i][0] {
			t.Fatalf("param %d: a copy of the decoded values", i)
		}
	}
}

// Floats stores each value as its eight little-endian bytes, so every bit
// survives the wire, and a byte string that is no whole number of values
// is an error.
func TestFloatsKeepEveryBit(t *testing.T) {
	want := []uint64{0, 1 << 63, 0x7ff8000000000001, 0x7ff0000000000001, 1, 0x7fefffffffffffff, 0xffefffffffffffff, 0x3ff0000000000000}
	f := make(Floats, len(want))
	for i, b := range want {
		f[i] = math.Float64frombits(b)
	}
	raw, err := f.GobEncode()
	if err != nil || len(raw) != 8*len(want) || binary.LittleEndian.Uint64(raw[8*2:]) != want[2] {
		t.Fatalf("encoded %x, %v", raw, err)
	}
	var g Floats
	if err := g.GobDecode(raw); err != nil {
		t.Fatal(err)
	}
	for i, v := range g {
		if math.Float64bits(v) != want[i] {
			t.Errorf("value %d: bits %#x, want %#x", i, math.Float64bits(v), want[i])
		}
	}
	if err := g.GobDecode(raw[:len(raw)-1]); err == nil {
		t.Error("decoded a byte string of 63 bytes")
	}
}

func TestCloneIsIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	net := NewNetwork(NewDense(3, 2, rng))
	c := net.Clone()
	x, _ := randBatch(rng, 2, 3, 2)
	if !mat.Equal(net.Forward(x), c.Forward(x), 0) {
		t.Fatal("clone differs")
	}
	c.Params()[0].Value.Data[0] += 1
	if mat.Equal(net.Forward(x), c.Forward(x), 1e-12) {
		t.Fatal("clone shares storage with original")
	}
}

func TestParamCountMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	net := NewNetwork(NewDense(10, 20, rng), NewReLU(), NewDense(20, 3, rng))
	total, trainable := net.ParamCount()
	want := 10*20 + 20 + 20*3 + 3
	if total != want || trainable != want {
		t.Fatalf("ParamCount = %d/%d, want %d", total, trainable, want)
	}
	net.Params()[0].Frozen = true
	_, trainable = net.ParamCount()
	if trainable != want-200 {
		t.Fatalf("trainable after freeze = %d", trainable)
	}
}

func TestInputGradientNormalizesAsAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	lp := NewLandPool(2, 4, 1, DefaultPoolOps(), rng)
	net := NewNetwork(lp, NewDense(lp.OutWidth(), 3, rng))
	x, _ := randBatch(rng, 1, 5*2+1, 3)
	grads, probs := net.InputGradientBatch(x, nil)
	grad := grads.Row(0)
	if len(grad) != x.Cols {
		t.Fatalf("grad len %d, want %d", len(grad), x.Cols)
	}
	var s float64
	for _, p := range probs.Row(0) {
		s += p
	}
	if math.Abs(s-1) > 1e-9 {
		t.Fatal("probs not normalized")
	}
	// At least one non-zero gradient entry expected.
	nonzero := false
	for _, g := range grad {
		if g != 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("all-zero input gradient")
	}
}

func TestSGDDecaySchedule(t *testing.T) {
	p := newParam("w", 1, 1)
	p.grad().Data[0] = 1
	o := &SGD{LR: 1, Momentum: 0, Decay: 1, Nesterov: false}
	o.Step([]*Param{p}) // lr = 1/(1+0) = 1
	if p.Value.Data[0] != -1 {
		t.Fatalf("after step 1: %v", p.Value.Data[0])
	}
	p.grad().Data[0] = 1
	o.Step([]*Param{p}) // lr = 1/(1+1) = 0.5
	if p.Value.Data[0] != -1.5 {
		t.Fatalf("after step 2: %v", p.Value.Data[0])
	}
}

func TestSGDNesterovMatchesManual(t *testing.T) {
	p := newParam("w", 1, 1)
	o := &SGD{LR: 0.1, Momentum: 0.9, Decay: 0, Nesterov: true}
	var v, w float64
	for i := 0; i < 5; i++ {
		g := float64(i + 1)
		p.grad().Data[0] = g
		o.Step([]*Param{p})
		v = 0.9*v - 0.1*g
		w += 0.9*v - 0.1*g
		if math.Abs(p.Value.Data[0]-w) > 1e-12 {
			t.Fatalf("step %d: got %v want %v", i, p.Value.Data[0], w)
		}
	}
}

// Property: pooling ops are permutation-invariant (commutative Ω, §III-C).
func TestPoolOpsPermutationInvariantProperty(t *testing.T) {
	ops := DefaultPoolOps()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		perm := rng.Perm(n)
		shuffled := make([]float64, n)
		for i, j := range perm {
			shuffled[i] = vals[j]
		}
		for _, op := range ops {
			if math.Abs(op.Forward(vals)-op.Forward(shuffled)) > 1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: pooling backward conserves gradient mass for linear ops (avg),
// and routes exactly g for min/max/percentile.
func TestPoolBackwardMassProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(8)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		g := rng.NormFloat64()
		for _, op := range []PoolOp{AvgPool{}, MinPool{}, MaxPool{}, PercentilePool{P: 30}} {
			dvals := make([]float64, n)
			op.Backward(vals, g, dvals)
			var s float64
			for _, d := range dvals {
				s += d
			}
			if math.Abs(s-g) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPoolOpsByNameRoundTrip(t *testing.T) {
	ops := DefaultPoolOps()
	names := make([]string, len(ops))
	for i, op := range ops {
		names[i] = op.Name()
	}
	rebuilt := PoolOpsByName(names)
	vals := []float64{3, 1, 4, 1, 5}
	for i := range ops {
		if ops[i].Forward(vals) != rebuilt[i].Forward(vals) {
			t.Fatalf("op %s does not round-trip", names[i])
		}
	}
}

func TestPoolOpsByNameUnknownPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	PoolOpsByName([]string{"median-ish"})
}

// Extreme inputs must never produce NaN/Inf anywhere in the pipeline.
func TestNetworkNumericallyRobust(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	lp := NewLandPool(5, 8, 5, DefaultPoolOps(), rng)
	net := NewNetwork(lp, NewDense(lp.OutWidth(), 16, rng), NewReLU(), NewDense(16, 7, rng))
	for _, scale := range []float64{0, 1e-12, 1e6, -1e6} {
		x := mat.New(1, 10*5+5)
		for i := range x.Data {
			x.Data[i] = scale * rng.Float64()
		}
		grad, probs := net.InputGradientBatch(x, nil)
		for _, p := range probs.Data {
			if math.IsNaN(p) || math.IsInf(p, 0) {
				t.Fatalf("scale %v: non-finite probability", scale)
			}
		}
		for _, g := range grad.Data {
			if math.IsNaN(g) || math.IsInf(g, 0) {
				t.Fatalf("scale %v: non-finite gradient", scale)
			}
		}
	}
}

func TestArgmax(t *testing.T) {
	if Argmax([]float64{1, 3, 2}) != 1 {
		t.Fatal("Argmax wrong")
	}
	if Argmax([]float64{5}) != 0 {
		t.Fatal("Argmax single element")
	}
}

package nn

import (
	"math"
	"math/rand"
	"testing"

	"diagnet/internal/mat"
)

// The reference training step: the one FitGroups ran before gradients
// were stored and the optimizer made one pass. Every gradient is cleared,
// the batch runs forward on the heap, Dense adds xᵀ·dout into its weight
// gradient from a matrix of its own, the optimizer scales the gradients by
// the clip factor in place and then updates element by element, choosing
// the Nesterov form inside the loop.
func refStep(net *Network, opt *refSGD, lowest int, x *mat.Matrix, labels []int, weights []float64) float64 {
	params := net.Params()
	for _, p := range params {
		if p.Grad != nil {
			p.Grad.Zero()
		}
	}
	var ce SoftmaxCrossEntropy
	loss, dout := ce.WeightedLoss(nil, net.Forward(x), labels, weights)
	for i := len(net.Layers) - 1; i >= lowest; i-- {
		if d, ok := net.Layers[i].(*Dense); ok {
			dout = refDenseBackward(d, dout)
		} else {
			dout = net.Layers[i].Backward(dout)
		}
	}
	opt.Step(params)
	return loss
}

func refDenseBackward(d *Dense, dout *mat.Matrix) *mat.Matrix {
	if d.W.learns() {
		dw := mat.MulT1(nil, d.x, dout)
		d.W.grad().AddInPlace(dw)
	}
	if d.B.learns() {
		db := d.B.grad().Data
		for i := 0; i < dout.Rows; i++ {
			for j, v := range dout.Row(i) {
				db[j] += v
			}
		}
	}
	return mat.MulT2(nil, dout, d.W.Value)
}

type refSGD struct {
	LR, Momentum, Decay float64
	Nesterov            bool
	ClipNorm            float64

	step     int
	velocity map[*Param]*mat.Matrix
}

func (o *refSGD) Step(params []*Param) {
	if o.velocity == nil {
		o.velocity = make(map[*Param]*mat.Matrix)
	}
	if o.ClipNorm > 0 {
		var sq float64
		for _, p := range params {
			if p.Frozen {
				continue
			}
			for _, g := range p.Grad.Data {
				sq += g * g
			}
		}
		if norm := math.Sqrt(sq); norm > o.ClipNorm {
			scale := o.ClipNorm / norm
			for _, p := range params {
				if !p.Frozen {
					p.Grad.Scale(scale)
				}
			}
		}
	}
	lr := o.LR / (1 + o.Decay*float64(o.step))
	o.step++
	for _, p := range params {
		if p.Frozen {
			continue
		}
		v := o.velocity[p]
		if v == nil {
			v = mat.New(p.Value.Rows, p.Value.Cols)
			o.velocity[p] = v
		}
		for i, g := range p.Grad.Data {
			v.Data[i] = o.Momentum*v.Data[i] - lr*g
			if o.Nesterov {
				p.Value.Data[i] += o.Momentum*v.Data[i] - lr*g
			} else {
				p.Value.Data[i] += v.Data[i]
			}
		}
	}
}

// randomStack builds a small LandPool + Dense network of random shape, and
// the width of its input for ell landmarks.
func randomStack(rng *rand.Rand, ell int) (*Network, int) {
	ops := DefaultPoolOps()
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	lp := NewLandPool(1+rng.Intn(4), 1+rng.Intn(6), rng.Intn(3), ops[:1+rng.Intn(len(ops))], rng)
	layers := []Layer{lp}
	in := lp.OutWidth()
	for range rng.Intn(3) {
		h := 1 + rng.Intn(40)
		layers = append(layers, NewDense(in, h, rng), NewReLU())
		in = h
	}
	layers = append(layers, NewDense(in, 2+rng.Intn(4), rng))
	return NewNetwork(layers...), ell*lp.K + lp.NumLocal
}

// FuzzTrainStepMatchesReference: several steps of the training step
// FitGroups runs — on its workspace, gradients stored, the clip factor
// folded into a one-pass update — leave every weight, velocity and loss
// bit-equal to the reference step's, over random small LandPool + Dense
// stacks, batches of 1 to 70 rows, frozen prefixes, clipping off, on and
// not reached, and Nesterov on and off. Where the clip does not scale,
// the stored gradients equal the accumulated ones too.
func FuzzTrainStepMatchesReference(f *testing.F) {
	for mode := range uint8(12) {
		f.Add(int64(mode)+1, uint8(5*mode), mode%3, mode)
	}
	f.Add(int64(99), uint8(69), uint8(0), uint8(3))
	f.Add(int64(7), uint8(0), uint8(9), uint8(4))
	f.Fuzz(func(t *testing.T, seed int64, batch, frozen, mode uint8) {
		rng := rand.New(rand.NewSource(seed))
		ell := 1 + rng.Intn(6)
		net, width := randomStack(rng, ell)
		classes := net.Layers[len(net.Layers)-1].(*Dense).Out
		nf := int(frozen) % (len(net.Layers) + 1) // layers whose params are frozen
		for _, l := range net.Layers[:nf] {
			for _, p := range l.Params() {
				p.Frozen = true
			}
		}
		ref := net.Clone()

		nesterov := mode&1 == 1
		clip := [...]float64{0, 1e-3, 1e6}[(mode>>1)%3] // off, on, not reached
		var weights []float64
		if mode&8 != 0 {
			weights = make([]float64, classes)
			for i := range weights {
				weights[i] = 0.5 + rng.Float64()
			}
		}
		opt := &SGD{LR: 0.05, Momentum: 0.9, Decay: 0.001, Nesterov: nesterov, ClipNorm: clip}
		refOpt := &refSGD{LR: 0.05, Momentum: 0.9, Decay: 0.001, Nesterov: nesterov, ClipNorm: clip}
		tr := &Trainer{Net: net, Opt: opt, ClassWeights: weights}

		fit, params := net.trainingView(new(Workspace)), net.Params()
		fit.SetTraining(true)
		ref.SetTraining(true)
		lowest := fit.lowestTrainable()
		refParams := ref.Params()
		rows := 1 + int(batch)%70
		for step := range 4 {
			if step > 0 {
				rows = 1 + rng.Intn(70)
			}
			x, labels := randBatch(rng, rows, width, classes)
			loss := tr.step(fit, params, lowest, x, labels)
			refLoss := refStep(ref, refOpt, lowest, x, labels, weights)
			if math.Float64bits(loss) != math.Float64bits(refLoss) {
				t.Fatalf("step %d: loss %v, reference %v", step, loss, refLoss)
			}
			for i, p := range params {
				rp := refParams[i]
				if !bitsEqual(p.Value, rp.Value) {
					t.Fatalf("step %d, %d rows: param %d (%s) differs from the reference's", step, rows, i, p.Name)
				}
				if !bitsEqual(opt.velocity[p], refOpt.velocity[rp]) {
					t.Fatalf("step %d: the velocity of param %d (%s) differs from the reference's", step, i, p.Name)
				}
				if clip != 1e-3 && !bitsEqual(p.Grad, rp.Grad) {
					t.Fatalf("step %d: the gradient of param %d (%s) differs from the reference's", step, i, p.Name)
				}
			}
		}
	})
}

// bitsEqual reports whether a and b are both nil, or hold the same bits.
func bitsEqual(a, b *mat.Matrix) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	if len(a.Data) != len(b.Data) {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

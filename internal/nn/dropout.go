package nn

import (
	"fmt"
	"math/rand"

	"diagnet/internal/mat"
)

// trainingAware is implemented by layers that behave differently during
// training and inference.
type trainingAware interface {
	SetTraining(bool)
}

// SetTraining switches the network between training and inference
// behaviour: mode-aware layers follow it, and Backward accumulates
// parameter gradients only in training mode. Trainer.Fit toggles it
// automatically; a network is in inference mode by default, where Forward
// and Backward read the parameters and never write them.
func (n *Network) SetTraining(training bool) {
	for _, l := range n.Layers {
		if ta, ok := l.(trainingAware); ok {
			ta.SetTraining(training)
		}
		for _, p := range l.Params() {
			p.training = training
		}
	}
}

// Dropout zeroes a fraction Rate of activations during training (inverted
// dropout: survivors are scaled by 1/(1−Rate) so inference needs no
// rescaling) and is the identity at inference. Offered as regularization
// infrastructure for hyperparameter studies; the paper's Table I model
// does not use it.
type Dropout struct {
	Rate float64

	rng      *rand.Rand
	training bool
	mask     []bool
}

// NewDropout builds a dropout layer with rate in [0, 1).
func NewDropout(rate float64, rng *rand.Rand) *Dropout {
	if rate < 0 || rate >= 1 {
		panic(fmt.Sprintf("nn: dropout rate %v out of [0,1)", rate))
	}
	return &Dropout{Rate: rate, rng: rng}
}

// SetTraining implements trainingAware.
func (d *Dropout) SetTraining(training bool) { d.training = training }

// Forward applies the mask during training and passes through otherwise.
func (d *Dropout) Forward(x *mat.Matrix) *mat.Matrix {
	if !d.training || d.Rate == 0 {
		d.mask = nil
		return x
	}
	y := x.Clone()
	if cap(d.mask) < len(y.Data) {
		d.mask = make([]bool, len(y.Data))
	}
	d.mask = d.mask[:len(y.Data)]
	scale := 1 / (1 - d.Rate)
	for i := range y.Data {
		if d.rng.Float64() < d.Rate {
			d.mask[i] = false
			y.Data[i] = 0
		} else {
			d.mask[i] = true
			y.Data[i] *= scale
		}
	}
	return y
}

// Backward routes gradients through the surviving units only.
func (d *Dropout) Backward(dout *mat.Matrix) *mat.Matrix {
	if d.mask == nil {
		return dout
	}
	if len(d.mask) != len(dout.Data) {
		panic("nn: Dropout.Backward shape mismatch with Forward")
	}
	dx := dout.Clone()
	scale := 1 / (1 - d.Rate)
	for i := range dx.Data {
		if d.mask[i] {
			dx.Data[i] *= scale
		} else {
			dx.Data[i] = 0
		}
	}
	return dx
}

// Params returns nil: dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }

// Spec implements Layer.
func (d *Dropout) Spec() LayerSpec {
	return LayerSpec{Kind: "dropout", Strings: []string{fmt.Sprintf("%g", d.Rate)}}
}

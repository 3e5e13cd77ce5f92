package nn

import (
	"math"

	"diagnet/internal/mat"
)

// SGD implements stochastic gradient descent with Nesterov momentum and
// inverse-time learning-rate decay, matching the paper's optimizer
// (Table I: lr = 0.05, decay = 0.001, Nesterov).
//
// The update follows the Keras/TF-1.x formulation the authors used:
//
//	lr_t = lr / (1 + decay·t)           (t counts update steps)
//	v    = momentum·v − lr_t·g
//	w   += momentum·v − lr_t·g          (Nesterov correction)
type SGD struct {
	LR       float64
	Momentum float64
	Decay    float64
	Nesterov bool
	// ClipNorm rescales the gradients of the non-frozen parameters when
	// their global L2 norm exceeds it; 0 disables clipping. Large-width
	// networks at the paper's lr = 0.05 need it to stay stable.
	ClipNorm float64

	step     int
	velocity map[*Param]*mat.Matrix
}

// NewSGD returns an optimizer with the paper's default hyperparameters.
func NewSGD() *SGD {
	return &SGD{LR: 0.05, Momentum: 0.9, Decay: 0.001, Nesterov: true, ClipNorm: 5}
}

// Step applies one update to every non-frozen parameter and advances the
// decay schedule. The clip factor is applied inside the update, to the
// gradient each element reads; Grad itself is left as the backward pass
// stored it.
func (o *SGD) Step(params []*Param) {
	if o.velocity == nil {
		o.velocity = make(map[*Param]*mat.Matrix)
	}
	scale := 1.0
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
			scale = o.ClipNorm / norm
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
		o.update(p.Value.Data, v.Data, p.Grad.Data, lr, scale)
	}
}

// update moves the weights w and velocities vel of one parameter along its
// gradient grad, each element scaled by scale (a product by 1 leaves
// every number as it is).
func (o *SGD) update(w, vel, grad []float64, lr, scale float64) {
	w, vel = w[:len(grad)], vel[:len(grad)]
	m := o.Momentum
	if o.Nesterov {
		for i, g := range grad {
			g *= scale
			vel[i] = m*vel[i] - lr*g
			w[i] += m*vel[i] - lr*g
		}
		return
	}
	for i, g := range grad {
		g *= scale
		vel[i] = m*vel[i] - lr*g
		w[i] += vel[i]
	}
}

// Reset clears the momentum buffers and the decay schedule, e.g. before
// fine-tuning a specialized model.
func (o *SGD) Reset() {
	o.step = 0
	o.velocity = nil
}

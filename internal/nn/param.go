// Package nn is a compact feed-forward neural network engine written for
// DiagNet: dense layers, ReLU, the paper's LandPooling layer, a softmax
// cross-entropy loss, and SGD with Nesterov momentum and learning-rate
// decay (Table I of the paper).
//
// The engine is a white-box replacement for the TensorFlow 1.13 stack the
// authors used. It exposes full backpropagation — including gradients with
// respect to the *inputs* — which DiagNet's attention mechanism (§III-E)
// requires, and supports freezing parameters, which the per-service
// specialization procedure (§IV-F) requires.
//
// All computations are float64 and deterministic for a given seed.
package nn

import (
	"math"
	"math/rand"

	"diagnet/internal/mat"
)

// Param is one trainable tensor: its value, the gradient accumulated by the
// latest training-mode backward pass, and a freeze flag honoured by
// optimizers. Grad is nil until the parameter is first trained: a network
// loaded only to serve holds one matrix per parameter, and the Params of
// an inference view (Network.View) never get one.
type Param struct {
	Name   string
	Value  *mat.Matrix
	Grad   *mat.Matrix
	Frozen bool

	// training is set while the owning network is in training mode
	// (Network.SetTraining): only then does its layer's Backward accumulate
	// into Grad. Outside it a pass reads Value and writes nothing here.
	training bool
}

func newParam(name string, rows, cols int) *Param {
	return &Param{Name: name, Value: mat.New(rows, cols)}
}

// grad returns the gradient accumulator, allocating it on first use.
func (p *Param) grad() *mat.Matrix {
	if p.Grad == nil {
		p.Grad = mat.New(p.Value.Rows, p.Value.Cols)
	}
	return p.Grad
}

// accumulates reports whether a backward pass adds into p's gradient: only
// in training mode, and never for a frozen parameter — a frozen Param may
// alias the matrices of a model that is being served (core's shared
// trunk), so training neither allocates a gradient for it nor writes it.
func (p *Param) accumulates() bool { return p.training && !p.Frozen }

// view returns a Param that aliases p's value and carries no gradient.
func (p *Param) view() *Param {
	return &Param{Name: p.Name, Value: p.Value, Frozen: p.Frozen}
}

// glorotInit fills p.Value with Glorot/Xavier-uniform samples for a layer
// with the given fan-in and fan-out.
func glorotInit(p *Param, fanIn, fanOut int, rng *rand.Rand) {
	limit := math.Sqrt(6.0 / float64(fanIn+fanOut))
	for i := range p.Value.Data {
		p.Value.Data[i] = (rng.Float64()*2 - 1) * limit
	}
}

// zeroGrads clears the gradients of every param in ps that has one.
func zeroGrads(ps []*Param) {
	for _, p := range ps {
		if p.Grad != nil {
			p.Grad.Zero()
		}
	}
}

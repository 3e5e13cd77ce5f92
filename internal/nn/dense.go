package nn

import (
	"fmt"
	"math/rand"

	"diagnet/internal/mat"
)

// Layer is one differentiable stage of a network. Forward consumes a batch
// (one sample per row) and Backward consumes the gradient of the loss with
// respect to Forward's output, stores the gradients of the parameters that
// are not frozen when its network is in training mode
// (Network.SetTraining), and returns the gradient with respect to
// Forward's input — where a Dense's input is a ReLU's output, only where
// that output is nonzero, the rest +0 as the ReLU's Backward makes it
// anyway (Dense.Backward). Outside training mode neither pass writes a
// Param, so any number of views (Network.View) may run over one set of
// weights. The matrices both passes return belong to the workspace of the
// layer's view (Network.ViewIn; the heap when it has none), and a layer may
// overwrite the matrix it is given (ReLU does).
type Layer interface {
	Forward(x *mat.Matrix) *mat.Matrix
	Backward(dout *mat.Matrix) *mat.Matrix
	Params() []*Param
	// Spec describes the layer for serialization and cloning.
	Spec() LayerSpec
}

// Dense is a fully connected layer: y = x·W + b.
type Dense struct {
	In, Out int
	W       *Param // In×Out
	B       *Param // 1×Out

	ws *Workspace  // where the outputs of both passes come from (nil: the heap)
	x  *mat.Matrix // cached input for backward

	// afterReLU is set when the layer below is a ReLU (markReLUInputs):
	// Backward then computes dx only where that ReLU's output is nonzero.
	afterReLU bool
}

// NewDense creates a Dense layer with Glorot-uniform weights and zero bias.
func NewDense(in, out int, rng *rand.Rand) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		W:   newParam(fmt.Sprintf("dense_%dx%d_w", in, out), in, out),
		B:   newParam(fmt.Sprintf("dense_%dx%d_b", in, out), 1, out),
	}
	glorotInit(d.W, in, out, rng)
	return d
}

// Forward computes x·W + b for a batch x (n×In).
func (d *Dense) Forward(x *mat.Matrix) *mat.Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: Dense.Forward: input width %d, want %d", x.Cols, d.In))
	}
	d.x = x
	y := mat.Mul(d.ws.Matrix(x.Rows, d.Out), x, d.W.Value)
	y.AddRowVector(d.B.Value.Data)
	return y
}

// Backward returns dx = dout·Wᵀ and, in training mode, stores
// dW = xᵀ·dout and db = colsum(dout) as the gradients of the parameters
// that are not frozen. In a network whose layer below this one is a ReLU,
// dx is masked by the input: +0 wherever x is zero, which is exactly what
// that ReLU's Backward writes there, and those elements are not computed
// (mat.MulT2Masked). A ReLU leaves most of them zero.
func (d *Dense) Backward(dout *mat.Matrix) *mat.Matrix {
	if d.x == nil {
		panic("nn: Dense.Backward before Forward")
	}
	if d.W.learns() {
		mat.MulT1(d.W.grad(), d.x, dout)
	}
	if d.B.learns() {
		db := d.B.grad().Data
		clear(db)
		for i := 0; i < dout.Rows; i++ {
			for j, v := range dout.Row(i) {
				db[j] += v
			}
		}
	}
	var mask *mat.Matrix
	if d.afterReLU {
		mask = d.x
	}
	return mat.MulT2Masked(d.ws.Matrix(dout.Rows, d.In), dout, d.W.Value, mask)
}

// markReLUInputs sets afterReLU on every Dense of layers whose layer below
// is a ReLU. A layer keeps the mark in a network built over a part of its
// layers (Network.Sub): the ReLU's Backward still runs on what it returns.
func markReLUInputs(layers []Layer) {
	for i := 1; i < len(layers); i++ {
		if _, ok := layers[i-1].(*ReLU); ok {
			if d, ok := layers[i].(*Dense); ok {
				d.afterReLU = true
			}
		}
	}
}

// Params returns the layer's weight and bias.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// Spec implements Layer.
func (d *Dense) Spec() LayerSpec {
	return LayerSpec{Kind: "dense", Ints: map[string]int{"in": d.In, "out": d.Out}}
}

// ReLU applies max(0, x) element-wise, in place: Forward overwrites its
// input and Backward the gradient it is given, and each returns the matrix
// it was passed. In every network buildLayer can produce, that input is the
// output of the Dense below and that gradient the output of the layer above
// (or the loss seed) — matrices nobody reads again.
type ReLU struct {
	y *mat.Matrix // Forward's rectified output
}

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward rectifies x in place: every element that is not positive, NaN
// and −0 among them, becomes +0.
func (r *ReLU) Forward(x *mat.Matrix) *mat.Matrix {
	for i, v := range x.Data {
		if !(v > 0) {
			x.Data[i] = 0
		}
	}
	r.y = x
	return x
}

// Backward zeroes, in place, the gradients where Forward's output is 0,
// which is where its input was not positive.
func (r *ReLU) Backward(dout *mat.Matrix) *mat.Matrix {
	if r.y == nil || len(r.y.Data) != len(dout.Data) {
		panic("nn: ReLU.Backward shape mismatch with Forward")
	}
	for i, v := range r.y.Data {
		if v == 0 {
			dout.Data[i] = 0
		}
	}
	return dout
}

// Params returns nil: ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Spec implements Layer.
func (r *ReLU) Spec() LayerSpec { return LayerSpec{Kind: "relu"} }

package nn

import (
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"

	"diagnet/internal/mat"
)

// LayerSpec is a serializable description of a layer's architecture.
type LayerSpec struct {
	Kind    string
	Ints    map[string]int
	Strings []string
}

// Network is a sequential stack of layers.
type Network struct {
	Layers []Layer

	// ws is where a pass over the network takes its matrices from: the
	// workspace of a session's view (ViewIn), nil — the heap — otherwise.
	ws *Workspace
}

// NewNetwork wraps layers into a network.
func NewNetwork(layers ...Layer) *Network { return &Network{Layers: layers} }

// Forward runs the batch x through every layer.
func (n *Network) Forward(x *mat.Matrix) *mat.Matrix {
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// Backward propagates dout from the output back to the input and returns
// the gradient with respect to the input batch; in training mode it also
// accumulates parameter gradients.
func (n *Network) Backward(dout *mat.Matrix) *mat.Matrix {
	return n.backwardFrom(0, dout)
}

// backwardFrom is Backward stopped after layer `lowest`: what it returns
// is the gradient with respect to that layer's input.
func (n *Network) backwardFrom(lowest int, dout *mat.Matrix) *mat.Matrix {
	for i := len(n.Layers) - 1; i >= lowest; i-- {
		dout = n.Layers[i].Backward(dout)
	}
	return dout
}

// lowestTrainable returns the index of the first layer holding a parameter
// that is not frozen (len(Layers) when there is none). A training step
// backpropagates no further: nothing below learns, and a fit never reads
// the input gradient — so a head-only fit does not pay for the frozen
// trunk's backward pass.
func (n *Network) lowestTrainable() int {
	for i, l := range n.Layers {
		for _, p := range l.Params() {
			if !p.Frozen {
				return i
			}
		}
	}
	return len(n.Layers)
}

// Params returns all parameters of all layers in order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ParamCount returns the total number of scalar parameters, and the number
// that are currently trainable (not frozen).
func (n *Network) ParamCount() (total, trainable int) {
	for _, p := range n.Params() {
		c := len(p.Value.Data)
		total += c
		if !p.Frozen {
			trainable += c
		}
	}
	return total, trainable
}

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() { zeroGrads(n.Params()) }

// InputGradientBatch returns, for every row of the b×n batch x, the
// gradient of that row's ideal-label cross-entropy loss
// L* = −log softmax(f(x))[target] with respect to its input features, plus
// the softmax probabilities of the forward pass. This is DiagNet's
// attention primitive (§III-E): it requires white-box access to the
// network, which this engine provides by construction. One forward and one
// backward pass cover the whole batch, so the weight matrices are streamed
// from memory once per batch rather than once per sample — which is what
// makes the serving engine's micro-batching pay — and because no layer
// mixes information across rows, row i equals what the b = 1 pass on
// x.Row(i) produces. targets may be nil (per-row arg-max ideal labels) or
// hold one class per row, -1 selecting that row's arg-max. Outside
// training mode the pass writes no Param (only the layers' caches), so it
// is safe on a View of weights other goroutines are reading. The input
// batch is mutated-safe: callers may reuse x's backing storage afterwards.
// Both results belong to the network's workspace (ViewIn).
func (n *Network) InputGradientBatch(x *mat.Matrix, targets []int) (grads, probs *mat.Matrix) {
	logits := n.Forward(x)
	tg := targets
	if tg == nil {
		tg = n.ws.indices(logits.Rows)
		for i := range tg {
			tg[i] = -1
		}
	}
	for i := range tg {
		if tg[i] < 0 {
			tg[i] = Argmax(logits.Row(i))
		}
	}
	probs = softmaxInto(n.ws.Matrix(logits.Rows, logits.Cols), logits)
	seed := idealLossSeed(n.ws.Matrix(logits.Rows, logits.Cols), probs, tg)
	return n.Backward(seed), probs
}

// Predict returns the softmax class probabilities for a batch; they belong
// to the network's workspace (ViewIn).
func (n *Network) Predict(x *mat.Matrix) *mat.Matrix {
	logits := n.Forward(x)
	return softmaxInto(n.ws.Matrix(logits.Rows, logits.Cols), logits)
}

// Argmax returns the index of the largest value in xs.
func Argmax(xs []float64) int {
	arg := 0
	for i, v := range xs {
		if v > xs[arg] {
			arg = i
		}
	}
	return arg
}

// snapshot is the gob wire format of a network.
type snapshot struct {
	Specs  []LayerSpec
	Values [][]float64
	Frozen []bool
}

// Save writes the network's architecture and parameters to w with gob.
func (n *Network) Save(w io.Writer) error {
	var s snapshot
	for _, l := range n.Layers {
		s.Specs = append(s.Specs, l.Spec())
	}
	for _, p := range n.Params() {
		s.Values = append(s.Values, p.Value.Data)
		s.Frozen = append(s.Frozen, p.Frozen)
	}
	return gob.NewEncoder(w).Encode(&s)
}

// Load reads a network previously written by Save.
func Load(r io.Reader) (*Network, error) {
	var s snapshot
	if err := gob.NewDecoder(r).Decode(&s); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	rng := rand.New(rand.NewSource(0)) // weights are overwritten below
	var layers []Layer
	for _, spec := range s.Specs {
		l, err := buildLayer(spec, rng)
		if err != nil {
			return nil, err
		}
		layers = append(layers, l)
	}
	net := NewNetwork(layers...)
	ps := net.Params()
	if len(ps) != len(s.Values) {
		return nil, fmt.Errorf("nn: load: %d params in file, %d in architecture", len(s.Values), len(ps))
	}
	for i, p := range ps {
		if len(s.Values[i]) != len(p.Value.Data) {
			return nil, fmt.Errorf("nn: load: param %d has %d values, want %d", i, len(s.Values[i]), len(p.Value.Data))
		}
		copy(p.Value.Data, s.Values[i])
		p.Frozen = s.Frozen[i]
	}
	return net, nil
}

func buildLayer(spec LayerSpec, rng *rand.Rand) (Layer, error) {
	switch spec.Kind {
	case "dense":
		return NewDense(spec.Ints["in"], spec.Ints["out"], rng), nil
	case "relu":
		return NewReLU(), nil
	case "landpool":
		ops := PoolOpsByName(spec.Strings)
		return NewLandPool(spec.Ints["k"], spec.Ints["f"], spec.Ints["local"], ops, rng), nil
	case "dropout":
		var rate float64
		if len(spec.Strings) == 1 {
			if _, err := fmt.Sscanf(spec.Strings[0], "%g", &rate); err != nil {
				return nil, fmt.Errorf("nn: bad dropout rate %q", spec.Strings[0])
			}
		}
		return NewDropout(rate, rng), nil
	default:
		return nil, fmt.Errorf("nn: unknown layer kind %q", spec.Kind)
	}
}

// View returns an inference view of the network: fresh layers with their
// own per-pass caches whose Params alias the source's Value matrices and
// carry no Grad. Building one copies no weights, and a pass over a view
// in inference mode (the default) writes nothing the source or another
// view can see, so any number of goroutines may each run their own view of
// one trained network. Training a view would write the shared weights;
// Clone first. Every pass over the view allocates its matrices afresh.
func (n *Network) View() *Network { return n.ViewIn(nil) }

// ViewIn is View on a workspace: every matrix a pass over the view
// produces — each layer's output and gradient, the results of
// InputGradientBatch and Predict — belongs to ws and is taken back by its
// next Reset (Workspace has the rule), so a pass over a warm workspace
// allocates nothing. The caller resets ws before each pass, after copying
// out what it keeps of the last. A nil ws is the heap.
func (n *Network) ViewIn(ws *Workspace) *Network {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		switch l := l.(type) {
		case *Dense:
			layers[i] = &Dense{In: l.In, Out: l.Out, W: l.W.view(), B: l.B.view(), ws: ws}
		case *LandPool:
			layers[i] = &LandPool{K: l.K, F: l.F, NumLocal: l.NumLocal, Ops: l.Ops, Kernel: l.Kernel.view(), Bias: l.Bias.view(), ws: ws}
		case *ReLU:
			layers[i] = NewReLU()
		case *Dropout:
			layers[i] = NewDropout(l.Rate, rand.New(rand.NewSource(0)))
		default:
			panic(fmt.Sprintf("nn: View: unknown layer type %T", l))
		}
	}
	return &Network{Layers: layers, ws: ws}
}

// Sub returns layers [lo, hi) of n as a network on n's workspace.
func (n *Network) Sub(lo, hi int) *Network {
	return &Network{Layers: n.Layers[lo:hi], ws: n.ws}
}

// Clone returns a deep copy of the network (weights, freeze flags).
func (n *Network) Clone() *Network {
	c := n.View()
	for _, p := range c.Params() {
		p.Value = p.Value.Clone()
	}
	return c
}

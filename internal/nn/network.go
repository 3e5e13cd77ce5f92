package nn

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"

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

// Wire is the serialized form of a network, which core's bundle embeds
// inline: each layer's LayerSpec, with its Ints map written as its keys,
// sorted, and their values (gob walks a map in random order, so its bytes
// would not be a function of the network), then every parameter's values
// (one Floats each) and freeze flag. The Values of a Wire built by
// Network.Wire alias the network's matrices.
type Wire struct {
	Specs  []SpecWire
	Values []Floats
	Frozen []bool

	// aliased is set by Network.Wire: Values are another network's
	// matrices, which a network built from w must copy. A decoded Wire
	// (gob leaves the field false) owns its Values, and gives them away.
	aliased bool
}

// Floats is a parameter's values on the wire: one byte string holding
// each value's IEEE-754 bits, little-endian, eight bytes a value. Gob
// would write a []float64 element by element, up to nine bytes each, and
// decode it as slowly; a byte string is one length and a copy, and it
// keeps every bit (−0, NaN payloads, subnormals).
type Floats []float64

// GobEncode returns f's bytes.
func (f Floats) GobEncode() ([]byte, error) {
	b := make([]byte, 8*len(f))
	for i, v := range f {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b, nil
}

// GobDecode sets f to fresh storage holding the values b encodes. A
// length that is not a whole number of values is an error.
func (f *Floats) GobDecode(b []byte) error {
	if len(b)%8 != 0 {
		return fmt.Errorf("nn: a parameter of %d bytes is not a whole number of float64 values", len(b))
	}
	v := make([]float64, len(b)/8)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	*f = v
	return nil
}

// SpecWire is a LayerSpec with a sorted key order.
type SpecWire struct {
	Kind    string
	Keys    []string
	Ints    []int
	Strings []string
}

// Wire returns the network's Wire form.
func (n *Network) Wire() Wire {
	w := Wire{aliased: true}
	for _, l := range n.Layers {
		spec := l.Spec()
		sw := SpecWire{Kind: spec.Kind, Strings: spec.Strings}
		for k := range spec.Ints {
			sw.Keys = append(sw.Keys, k)
		}
		sort.Strings(sw.Keys)
		for _, k := range sw.Keys {
			sw.Ints = append(sw.Ints, spec.Ints[k])
		}
		w.Specs = append(w.Specs, sw)
	}
	for _, p := range n.Params() {
		w.Values = append(w.Values, p.Value.Data)
		w.Frozen = append(w.Frozen, p.Frozen)
	}
	return w
}

// Network builds the network w describes. Its parameters hold w's Values
// themselves when w was decoded, and copies of them when Network.Wire
// built w, so a network never shares a matrix with the one its Wire came
// from.
func (w Wire) Network() (*Network, error) {
	specs := make([]LayerSpec, len(w.Specs))
	for i, sw := range w.Specs {
		if len(sw.Keys) != len(sw.Ints) {
			return nil, fmt.Errorf("nn: load: layer %d has %d keys for %d values", i, len(sw.Keys), len(sw.Ints))
		}
		ints := make(map[string]int, len(sw.Keys))
		for j, k := range sw.Keys {
			ints[k] = sw.Ints[j]
		}
		specs[i] = LayerSpec{Kind: sw.Kind, Ints: ints, Strings: sw.Strings}
	}
	return build(specs, w.Values, w.Frozen, w.aliased)
}

// build assembles a saved network. Every parameter is a matrix over its
// saved values — a copy of them if clone is set, nothing initialized at
// random first — and a saved network that is not one is an error, never
// a panic: an unknown layer or pooling op, a dimension below one, a
// dropout rate outside [0, 1), a parameter whose length is not its
// layer's dimensions, a Dense whose input is not the width below it, or a
// count of values or freeze flags that is not the architecture's.
func build(specs []LayerSpec, values []Floats, frozen []bool, clone bool) (*Network, error) {
	if len(frozen) != len(values) {
		return nil, fmt.Errorf("nn: load: %d freeze flags for %d params", len(frozen), len(values))
	}
	layers := make([]Layer, 0, len(specs))
	width := -1 // the output width of the layers so far; -1 while any width fits
	rest := values
	for i, spec := range specs {
		l, err := buildLayer(spec, rest, clone)
		if err != nil {
			return nil, fmt.Errorf("nn: load: layer %d: %w", i, err)
		}
		rest = rest[len(l.Params()):]
		switch l := l.(type) {
		case *Dense:
			if width >= 0 && l.In != width {
				return nil, fmt.Errorf("nn: load: layer %d: dense input %d after width %d", i, l.In, width)
			}
			width = l.Out
		case *LandPool:
			width = l.OutWidth()
		}
		layers = append(layers, l)
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("nn: load: %d params in file, %d in architecture", len(values), len(values)-len(rest))
	}
	net := NewNetwork(layers...)
	for i, p := range net.Params() {
		p.Frozen = frozen[i]
	}
	return net, nil
}

// buildLayer builds the layer spec describes around the leading entries of
// values, one per parameter, copied if clone is set.
func buildLayer(spec LayerSpec, values []Floats, clone bool) (Layer, error) {
	switch spec.Kind {
	case "dense":
		in, out := spec.Ints["in"], spec.Ints["out"]
		w, err := loadParam(fmt.Sprintf("dense_%dx%d_w", in, out), in, out, values, 0, clone)
		if err != nil {
			return nil, err
		}
		b, err := loadParam(fmt.Sprintf("dense_%dx%d_b", in, out), 1, out, values, 1, clone)
		if err != nil {
			return nil, err
		}
		return &Dense{In: in, Out: out, W: w, B: b}, nil
	case "relu":
		return NewReLU(), nil
	case "landpool":
		ops, err := poolOpsByName(spec.Strings)
		if err != nil {
			return nil, err
		}
		k, f, local := spec.Ints["k"], spec.Ints["f"], spec.Ints["local"]
		if local < 0 {
			return nil, fmt.Errorf("landpool: %d local features", local)
		}
		kernel, err := loadParam("landpool_kernel", f, k, values, 0, clone)
		if err != nil {
			return nil, err
		}
		bias, err := loadParam("landpool_bias", 1, f, values, 1, clone)
		if err != nil {
			return nil, err
		}
		return &LandPool{K: k, F: f, NumLocal: local, Ops: ops, Kernel: kernel, Bias: bias}, nil
	case "dropout":
		var rate float64
		if len(spec.Strings) == 1 {
			if _, err := fmt.Sscanf(spec.Strings[0], "%g", &rate); err != nil {
				return nil, fmt.Errorf("bad dropout rate %q", spec.Strings[0])
			}
		}
		if !(rate >= 0 && rate < 1) {
			return nil, fmt.Errorf("dropout rate %v out of [0,1)", rate)
		}
		return NewDropout(rate, rand.New(rand.NewSource(0))), nil
	default:
		return nil, fmt.Errorf("unknown layer kind %q", spec.Kind)
	}
}

// loadParam returns a rows×cols parameter over values[i], or over a copy
// of it if clone is set.
func loadParam(name string, rows, cols int, values []Floats, i int, clone bool) (*Param, error) {
	if i >= len(values) {
		return nil, fmt.Errorf("%s: missing from the file", name)
	}
	v := values[i]
	if rows < 1 || cols < 1 || len(v)%cols != 0 || len(v)/cols != rows {
		return nil, fmt.Errorf("%s: %d values for %d×%d", name, len(v), rows, cols)
	}
	if clone {
		v = slices.Clone(v)
	}
	return &Param{Name: name, Value: mat.FromSlice(rows, cols, v)}, nil
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

package nn

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"diagnet/internal/mat"
	"diagnet/internal/telemetry"
)

// Training metrics (DESIGN.md §10): epoch pacing and the latest losses, so
// a long-running retraining job can be watched from the metrics endpoint.
var (
	mEpochs  = telemetry.Default().Counter("nn.train.epochs")
	mBatches = telemetry.Default().Counter("nn.train.batches")
	mEpochMs = telemetry.Default().Histogram("nn.train.epoch_ms", nil)
	mLoss    = telemetry.Default().Gauge("nn.train.loss")
	mValLoss = telemetry.Default().Gauge("nn.train.val_loss")
)

// TrainConfig controls Trainer.Fit.
type TrainConfig struct {
	Epochs    int // maximum epochs
	BatchSize int
	// Patience stops training once the validation loss has not improved
	// for this many consecutive epochs (the paper's "validation loss no
	// longer decreasing" criterion, §IV-F). Zero disables early stopping.
	Patience int
	Seed     int64
	// Verbose, when non-nil, receives one line per epoch.
	Verbose func(string)
	// OnEpoch, when non-nil, runs after every epoch (after validation)
	// with the 0-based epoch index and the running history. Returning
	// false stops training — best-validation weights are still restored.
	// Background retraining hooks in here: the callback may block to
	// pause training under serving overload, and may checkpoint the
	// network's current weights for crash resume.
	OnEpoch func(epoch int, h *History) bool
}

// History records per-epoch losses for learning-curve plots (Fig. 9).
type History struct {
	TrainLoss []float64
	ValLoss   []float64
	// BestEpoch is the 0-based epoch with the lowest validation loss
	// (or the last epoch when no validation set was given).
	BestEpoch int
}

// Epochs returns how many epochs actually ran.
func (h *History) Epochs() int { return len(h.TrainLoss) }

// Trainer fits a Network on labeled batches with an optimizer (SGD with
// Nesterov momentum by default, per Table I).
type Trainer struct {
	Net  *Network
	Opt  Optimizer
	Loss SoftmaxCrossEntropy
	// ClassWeights enables class-balanced cross-entropy when non-nil.
	ClassWeights []float64
}

// NewTrainer pairs a network with the paper's default optimizer.
func NewTrainer(net *Network) *Trainer {
	return &Trainer{Net: net, Opt: NewSGD()}
}

// Group is one homogeneous training matrix. Groups may have different
// feature widths (e.g. LandPool inputs with different landmark counts),
// which is how DiagNet trains with landmark-dropout augmentation: the same
// network consumes full-layout batches and random-subset batches.
type Group struct {
	X      *mat.Matrix
	Labels []int
}

// Fit trains on (x, labels), optionally early-stopping on (valX, valLabels),
// and returns the loss history. Rows of x are samples; labels are class
// indices. The best-validation weights are restored before returning when a
// validation set is provided.
func (t *Trainer) Fit(x *mat.Matrix, labels []int, valX *mat.Matrix, valLabels []int, cfg TrainConfig) *History {
	return t.FitGroups([]Group{{X: x, Labels: labels}}, valX, valLabels, cfg)
}

// FitGroups trains on several groups at once. Within an epoch every group
// is shuffled and cut into minibatches; the resulting batch list is
// shuffled across groups so the optimizer interleaves them.
func (t *Trainer) FitGroups(groups []Group, valX *mat.Matrix, valLabels []int, cfg TrainConfig) *History {
	for gi, g := range groups {
		if g.X.Rows != len(g.Labels) {
			panic(fmt.Sprintf("nn: Fit: group %d: %d rows vs %d labels", gi, g.X.Rows, len(g.Labels)))
		}
	}
	if cfg.Epochs <= 0 {
		cfg.Epochs = 20
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 64
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	hist := &History{}
	orders := make([][]int, len(groups))
	for gi, g := range groups {
		orders[gi] = make([]int, g.X.Rows)
		for i := range orders[gi] {
			orders[gi][i] = i
		}
	}
	bestVal := math.Inf(1)
	var bestWeights [][]float64
	sinceBest := 0

	type batchRef struct{ group, lo, hi int }
	lowest := t.Net.lowestTrainable()
	t.Net.SetTraining(true)
	defer t.Net.SetTraining(false)
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		epochStart := time.Now()
		var refs []batchRef
		for gi, order := range orders {
			rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			for lo := 0; lo < len(order); lo += cfg.BatchSize {
				hi := lo + cfg.BatchSize
				if hi > len(order) {
					hi = len(order)
				}
				refs = append(refs, batchRef{gi, lo, hi})
			}
		}
		rng.Shuffle(len(refs), func(i, j int) { refs[i], refs[j] = refs[j], refs[i] })

		var epochLoss float64
		var batches int
		for _, ref := range refs {
			g := groups[ref.group]
			order := orders[ref.group]
			n := ref.hi - ref.lo
			bx := mat.New(n, g.X.Cols)
			by := make([]int, n)
			for i := 0; i < n; i++ {
				copy(bx.Row(i), g.X.Row(order[ref.lo+i]))
				by[i] = g.Labels[order[ref.lo+i]]
			}
			t.Net.ZeroGrads()
			logits := t.Net.Forward(bx)
			loss, dlogits := t.Loss.WeightedLoss(logits, by, t.ClassWeights)
			t.Net.backwardFrom(lowest, dlogits)
			t.Opt.Step(t.Net.Params())
			epochLoss += loss
			batches++
		}
		epochLoss /= float64(batches)
		hist.TrainLoss = append(hist.TrainLoss, epochLoss)
		mEpochs.Inc()
		mBatches.Add(int64(batches))
		mLoss.Set(epochLoss)
		mEpochMs.Observe(telemetry.Millis(time.Since(epochStart)))

		valLoss := math.NaN()
		if valX != nil && valX.Rows > 0 {
			t.Net.SetTraining(false)
			valLoss = t.Evaluate(valX, valLabels)
			t.Net.SetTraining(true)
			hist.ValLoss = append(hist.ValLoss, valLoss)
			mValLoss.Set(valLoss)
			if valLoss < bestVal-1e-6 {
				bestVal = valLoss
				hist.BestEpoch = epoch
				sinceBest = 0
				bestWeights = snapshotWeights(t.Net)
			} else {
				sinceBest++
			}
		} else {
			hist.BestEpoch = epoch
		}
		if cfg.Verbose != nil {
			cfg.Verbose(fmt.Sprintf("epoch %2d: train %.4f val %.4f", epoch, epochLoss, valLoss))
		}
		if cfg.OnEpoch != nil && !cfg.OnEpoch(epoch, hist) {
			break
		}
		if cfg.Patience > 0 && sinceBest >= cfg.Patience {
			break
		}
	}
	if bestWeights != nil {
		restoreWeights(t.Net, bestWeights)
	}
	return hist
}

// Evaluate returns the mean cross-entropy loss on (x, labels) without
// updating any parameter, using the trainer's class weights if set.
func (t *Trainer) Evaluate(x *mat.Matrix, labels []int) float64 {
	logits := t.Net.Forward(x)
	loss, _ := t.Loss.WeightedLoss(logits, labels, t.ClassWeights)
	return loss
}

// Accuracy returns the fraction of samples whose arg-max prediction matches
// the label.
func (t *Trainer) Accuracy(x *mat.Matrix, labels []int) float64 {
	if x.Rows == 0 {
		return 0
	}
	logits := t.Net.Forward(x)
	correct := 0
	for i := 0; i < logits.Rows; i++ {
		if Argmax(logits.Row(i)) == labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(x.Rows)
}

// snapshotWeights copies the values of the trainable parameters, indexed
// like n.Params(); a frozen parameter's entry stays nil.
func snapshotWeights(n *Network) [][]float64 {
	ps := n.Params()
	ws := make([][]float64, len(ps))
	for i, p := range ps {
		if !p.Frozen {
			ws[i] = append([]float64(nil), p.Value.Data...)
		}
	}
	return ws
}

// restoreWeights writes a snapshot back. Frozen parameters are never
// written: the fit did not move them, and their matrices may belong to a
// model other goroutines are serving.
func restoreWeights(n *Network, ws [][]float64) {
	for i, p := range n.Params() {
		if !p.Frozen {
			copy(p.Value.Data, ws[i])
		}
	}
}

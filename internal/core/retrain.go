package core

import (
	"fmt"

	"diagnet/internal/dataset"
	"diagnet/internal/nn"
)

// RetrainOptions tunes a warm-started retrain (the continual-learning
// plane's background trainer drives this; see DESIGN.md §15).
type RetrainOptions struct {
	// Epochs is the retrain epoch budget (default: the model config's
	// SpecializeEpochs — a warm start converges in few epochs).
	Epochs int
	// Patience early-stops on a stalled validation loss (default 2).
	Patience int
	// BatchSize defaults to the model config's.
	BatchSize int
	Seed      int64
	// HeadOnly keeps the model's trunk (the LandPooling kernel and the
	// first fully connected block) — shared with the source model, not
	// copied — and fits only a copy of the head, exactly the paper's
	// service-specialization scheme (§IV-F).
	HeadOnly bool
	// OnEpoch, when non-nil, runs after every epoch; returning false stops
	// the retrain (best-validation weights are still restored). Background
	// trainers use it to checkpoint progress and to pause under serving
	// overload.
	OnEpoch func(epoch int, h *nn.History) bool
	// Verbose, when non-nil, receives one line per epoch.
	Verbose func(string)
}

func (o RetrainOptions) withDefaults(cfg Config) RetrainOptions {
	if o.Epochs <= 0 {
		o.Epochs = cfg.SpecializeEpochs
	}
	if o.Patience <= 0 {
		o.Patience = 2
	}
	return o
}

// Retrain warm-starts a copy of the model (of its head only, with
// HeadOnly) and continues fitting its coarse classifier on new data: the weights, normalizer, known-landmark
// set and auxiliary forest all carry over, so the retrain adapts the
// decision function instead of rebuilding it — the paper's extensibility
// premise (§II-A) applied to the time axis. The receiver is never
// mutated; the returned model is a new instance sharing the immutable
// normalizer and forest.
//
// The dataset must be expressed under the model's full layout (live
// samples are lifted into it by the sample store). Samples may carry a
// family label without a cause index (Cause = -1); the auxiliary forest
// is not refitted.
func (m *Model) Retrain(train *dataset.Dataset, opt RetrainOptions) (*TrainResult, error) {
	if train.Len() == 0 {
		return nil, fmt.Errorf("core: retrain on an empty dataset")
	}
	if train.Layout.NumFeatures() != m.FullLayout.NumFeatures() {
		return nil, fmt.Errorf("core: retrain dataset has %d features, model's full layout wants %d",
			train.Layout.NumFeatures(), m.FullLayout.NumFeatures())
	}
	opt = opt.withDefaults(m.Cfg)
	var net *nn.Network
	if opt.HeadOnly {
		net = headOver(m.Net)
	} else {
		net = m.Net.Clone()
	}
	next := m.derive(net, m.ServiceID)
	hist := next.fitCoarse(train, nn.TrainConfig{
		Epochs:    opt.Epochs,
		BatchSize: opt.BatchSize,
		Patience:  opt.Patience,
		Seed:      opt.Seed,
		Verbose:   opt.Verbose,
		OnEpoch:   opt.OnEpoch,
	})
	return &TrainResult{Model: next, History: hist}, nil
}

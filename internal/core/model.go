package core

import (
	"fmt"
	"math/rand"
	"sync"

	"diagnet/internal/dataset"
	"diagnet/internal/forest"
	"diagnet/internal/mat"
	"diagnet/internal/nn"
	"diagnet/internal/probe"
)

// Model is a trained DiagNet instance. A general model diagnoses every
// service; Specialize derives per-service variants that share its frozen
// trunk (§IV-F). Once trained a Model is read-only — every method that fits
// weights (Specialize, Retrain) fits copies and never writes a frozen
// parameter — so it is safe for concurrent use, and must not be copied by
// value.
type Model struct {
	Cfg Config
	// TrainLayout is the landmark layout available at training time (the
	// known landmarks); inference may use any layout.
	TrainLayout probe.Layout
	// Known marks the landmark regions seen during training.
	Known map[int]bool
	// Norm is the per-metric normalizer fitted on training data. Because
	// it is keyed by metric kind (not landmark position) it applies to
	// landmarks that appear only at inference time.
	Norm *probe.Normalizer
	// Net is the coarse classifier: LandPool → FC stack → c logits.
	Net *nn.Network
	// Aux is the auxiliary extensible random forest over the full layout,
	// shared by specialized variants (ensemble averaging, §III-F).
	Aux *forest.Extensible
	// FullLayout is the deployment-wide layout the auxiliary model and
	// cause indices are expressed in.
	FullLayout probe.Layout
	// ServiceID is -1 for the general model, or the specialized service.
	ServiceID int

	// idle holds the one-row Sessions behind Diagnose and CoarsePredict
	// between calls (acquire, release): each holds layer caches and
	// scratch, never weights.
	idleMu sync.Mutex
	idle   []*Session
}

// TrainResult bundles a trained model with its learning history.
type TrainResult struct {
	Model   *Model
	History *nn.History
}

// buildNet assembles the Table I architecture for k features per landmark
// and NumLocal local features.
func buildNet(cfg Config, rng *rand.Rand) *nn.Network {
	lp := nn.NewLandPool(int(probe.NumMetrics), cfg.Filters, probe.NumLocal, cfg.PoolOpNames, rng)
	layers := []nn.Layer{lp}
	in := lp.OutWidth()
	for _, h := range cfg.Hidden {
		layers = append(layers, nn.NewDense(in, h, rng), nn.NewReLU())
		in = h
	}
	layers = append(layers, nn.NewDense(in, int(probe.NumFamilies), rng))
	return nn.NewNetwork(layers...)
}

// TrainGeneral trains a general DiagNet model on the training split.
// knownRegions are the landmark regions available during training; samples
// are projected onto that layout, normalized per metric kind, and the
// coarse classifier is fitted on fault families. The auxiliary random
// forest is fitted on zero-filled full-layout features with the root-cause
// feature (or "unknown" for nominal samples) as label.
func TrainGeneral(train *dataset.Dataset, knownRegions []int, cfg Config) *TrainResult {
	cfg = cfg.withDefaults()
	if train.Len() == 0 {
		panic("core: empty training set")
	}
	known := make(map[int]bool, len(knownRegions))
	for _, r := range knownRegions {
		known[r] = true
	}
	trainLayout := probe.NewLayout(knownRegions)
	full := train.Layout

	// Project and fit the normalizer on the training layout.
	raw := make([][]float64, train.Len())
	for i := range train.Samples {
		raw[i] = full.Project(train.Samples[i].Features, trainLayout)
	}
	norm := probe.FitNormalizer(raw, trainLayout)

	m := &Model{
		Cfg:         cfg,
		TrainLayout: trainLayout,
		Known:       known,
		Norm:        norm,
		FullLayout:  full,
		ServiceID:   -1,
	}

	// The auxiliary forest on zero-filled full-layout features is fitted
	// beside the coarse classifier: the two only read the samples and each
	// draws from its own seed, so the model is the one fitting them in
	// turn would give. A panic of the forest's is raised here, on the
	// caller's goroutine.
	var auxPanic any
	auxDone := make(chan struct{})
	go func() {
		defer close(auxDone)
		defer func() { auxPanic = recover() }()
		m.Aux = fitAux(train, known, cfg)
	}()

	rng := rand.New(rand.NewSource(cfg.Seed))
	m.Net = buildNet(cfg, rng)
	hist := m.fitCoarse(train, nn.TrainConfig{Epochs: cfg.Epochs, Patience: cfg.Patience, Seed: cfg.Seed})
	<-auxDone
	if auxPanic != nil {
		panic(auxPanic)
	}
	return &TrainResult{Model: m, History: hist}
}

// fitCoarse trains m.Net on the dataset with landmark-dropout
// augmentation: besides the full known-landmark projection, each epoch
// also sees the same samples projected onto random subsets of the known
// landmarks. Subsets keep the network honest about *which* cues it uses —
// it cannot memorize the full profile shape of the training deployment,
// which is what lets it absorb landmarks that only appear after training.
// Samples whose root-cause landmark is dropped from a view are relabeled
// nominal in that view (their anomaly is no longer observable).
//
// tc carries the epoch budget, patience, seed and optional per-epoch hook;
// the batch size defaults to the model config's.
func (m *Model) fitCoarse(train *dataset.Dataset, tc nn.TrainConfig) *nn.History {
	cfg := m.Cfg
	seed := tc.Seed
	knownRegions := m.TrainLayout.Landmarks
	full := m.FullLayout
	order := rand.New(rand.NewSource(seed + 7)).Perm(train.Len())
	nv := train.Len() / 10
	valIdx, trainIdx := order[:nv], order[nv:]

	build := func(rows []int, layout probe.Layout) nn.Group {
		x := mat.New(len(rows), layout.NumFeatures())
		labels := make([]int, len(rows))
		for i, r := range rows {
			s := &train.Samples[r]
			copy(x.Row(i), m.Norm.Apply(full.Project(s.Features, layout), layout))
			labels[i] = int(s.Family)
			// Live-ingested samples may carry a family label without a
			// cause index (Cause = -1); they keep their label in every view.
			if s.Degraded && s.Cause >= 0 && !full.IsLocal(s.Cause) {
				region := full.Landmarks[s.Cause/int(probe.NumMetrics)]
				if layout.LandmarkPos(region) < 0 {
					labels[i] = int(probe.FamNominal)
				}
			}
		}
		return nn.Group{X: x, Labels: labels}
	}

	groups := []nn.Group{build(trainIdx, m.TrainLayout)}
	if len(knownRegions) > 4 {
		augRNG := rand.New(rand.NewSource(seed + 99))
		for a := 0; a < 2; a++ {
			size := 4 + augRNG.Intn(len(knownRegions)-4)
			perm := augRNG.Perm(len(knownRegions))
			subset := make([]int, size)
			for i := range subset {
				subset[i] = knownRegions[perm[i]]
			}
			groups = append(groups, build(trainIdx, probe.NewLayout(subset)))
		}
	}
	val := build(valIdx, m.TrainLayout)

	trainer := nn.NewTrainer(m.Net)
	trainer.Opt = buildOptimizer(cfg)
	trainer.ClassWeights = balancedWeights(groups[0].Labels, int(probe.NumFamilies))
	if tc.BatchSize <= 0 {
		tc.BatchSize = cfg.BatchSize
	}
	return trainer.FitGroups(groups, val.X, val.Labels, tc)
}

// fitAux trains the extensible random forest (§IV-B-a) used both as the
// ensemble's auxiliary model and as the RANDOM FOREST baseline.
func fitAux(train *dataset.Dataset, known map[int]bool, cfg Config) *forest.Extensible {
	full := train.Layout
	causes := full.NumFeatures()
	x := make([][]float64, train.Len())
	labels := make([]int, train.Len())
	for i := range train.Samples {
		s := &train.Samples[i]
		x[i] = full.ZeroMask(s.Features, known)
		if s.Degraded {
			labels[i] = s.Cause
		} else {
			labels[i] = causes // the special "unknown" class
		}
	}
	fcfg := cfg.Forest
	fcfg.Seed = cfg.Seed + 1
	return forest.FitExtensible(x, labels, causes, fcfg)
}

// buildOptimizer maps a Config to the optimizer it requests. SGD with
// Nesterov momentum is the paper's choice; Adam is offered for tuning
// studies. Both clip the global gradient norm at 5 (DESIGN.md §7).
func buildOptimizer(cfg Config) nn.Optimizer {
	switch cfg.Optimizer {
	case "", "sgd":
		return &nn.SGD{LR: cfg.LearningRate, Momentum: cfg.Momentum, Decay: cfg.Decay, Nesterov: true, ClipNorm: 5}
	case "adam":
		return &nn.Adam{LR: cfg.LearningRate / 50, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8, ClipNorm: 5}
	default:
		panic(fmt.Sprintf("core: unknown optimizer %q", cfg.Optimizer))
	}
}

// balancedWeights returns inverse-frequency class weights normalized to
// mean 1 over the observed label distribution. Classes that never occur
// get weight 0 (they cannot contribute to the loss anyway).
func balancedWeights(labels []int, classes int) []float64 {
	counts := make([]float64, classes)
	for _, y := range labels {
		counts[y]++
	}
	present := 0
	for _, c := range counts {
		if c > 0 {
			present++
		}
	}
	w := make([]float64, classes)
	n := float64(len(labels))
	for k, c := range counts {
		if c > 0 {
			w[k] = n / (float64(present) * c)
		}
	}
	return w
}

// Specialize derives a per-service model from a general one: the trunk —
// the LandPooling kernel and the first fully connected block, which extract
// global network features shared across services — is the general model's
// own, frozen, and only the head is a copy, retrained on the service's
// samples (§IV-F; trunk.go has the split). The returned model also shares
// the auxiliary forest and normalizer.
func (m *Model) Specialize(train *dataset.Dataset, serviceID int) *TrainResult {
	if m.ServiceID != -1 {
		panic("core: Specialize must start from the general model")
	}
	svcData := train.FilterService(serviceID)
	if svcData.Len() == 0 {
		panic(fmt.Sprintf("core: no training samples for service %d", serviceID))
	}
	spec := m.derive(headOver(m.Net), serviceID)

	// Fine-tune on the service's own samples plus an equally sized slice
	// of the other services' samples. The mix-in regularizes the final
	// layers: a service that never met a remote fault in training must not
	// unlearn the general model's remote fault families (it may still meet
	// them after deployment — the hidden-landmark evaluation does exactly
	// that).
	mixin := train.FilterOtherServices(serviceID).SampleN(svcData.Len(), m.Cfg.Seed+int64(serviceID))
	hist := spec.fitCoarse(svcData.Concat(mixin), nn.TrainConfig{
		Epochs: m.Cfg.SpecializeEpochs, Patience: 2, Seed: m.Cfg.Seed + int64(serviceID),
	})
	return &TrainResult{Model: spec, History: hist}
}

// derive returns a new model around net that shares everything else —
// normalizer, forest, layouts, known-landmark set, all read-only — with m.
func (m *Model) derive(net *nn.Network, serviceID int) *Model {
	return &Model{
		Cfg:         m.Cfg,
		TrainLayout: m.TrainLayout,
		Known:       m.Known,
		Norm:        m.Norm,
		Net:         net,
		Aux:         m.Aux,
		FullLayout:  m.FullLayout,
		ServiceID:   serviceID,
	}
}

// ParamCount returns (total, trainable) scalar parameters of the coarse
// network, the quantities §IV-F reports.
func (m *Model) ParamCount() (total, trainable int) {
	return m.Net.ParamCount()
}

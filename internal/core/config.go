// Package core implements the DiagNet inference model (paper §III): the
// LandPooling convolutional coarse classifier, the gradient-based attention
// mechanism returning from coarse fault families to the input feature
// space, the multi-label score weighting of Algorithm 1, and the ensemble
// averaging with an auxiliary extensible random forest — plus the
// per-service specialization procedure of §IV-F.
package core

import (
	"diagnet/internal/forest"
	"diagnet/internal/nn"
)

// Config carries the hyperparameters of Table I.
type Config struct {
	// Filters is f, the number of convolution filters (paper: 24).
	Filters int
	// Hidden are the fully connected layer widths (paper: 512, 128).
	Hidden []int
	// PoolOpNames are the Ω global pooling operations (paper: min, max,
	// avg, variance, p10 … p90).
	PoolOpNames []string
	// Optimizer selects "sgd" (the paper's SGD with Nesterov momentum,
	// Table I) or "adam"; empty means "sgd".
	Optimizer    string
	LearningRate float64
	Momentum     float64
	Decay        float64
	// Training loop.
	Epochs    int
	BatchSize int
	Patience  int
	// SpecializeEpochs bounds fine-tuning of per-service models.
	SpecializeEpochs int
	// Forest configures the auxiliary random forest (paper: Gini, 50
	// estimators, depth 10).
	Forest forest.Config
	Seed   int64
}

// DefaultConfig returns Table I's hyperparameters.
func DefaultConfig() Config {
	return Config{
		Filters:          24,
		Hidden:           []int{512, 128},
		PoolOpNames:      nn.DefaultPoolOps(),
		Optimizer:        "sgd",
		LearningRate:     0.05,
		Momentum:         0.9,
		Decay:            0.001,
		Epochs:           25,
		BatchSize:        64,
		Patience:         4,
		SpecializeEpochs: 8,
		Forest:           forest.DefaultConfig(),
		Seed:             1,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Filters <= 0 {
		c.Filters = d.Filters
	}
	if len(c.Hidden) == 0 {
		c.Hidden = d.Hidden
	}
	if len(c.PoolOpNames) == 0 {
		c.PoolOpNames = d.PoolOpNames
	}
	if c.Optimizer == "" {
		c.Optimizer = d.Optimizer
	}
	if c.LearningRate == 0 {
		c.LearningRate = d.LearningRate
	}
	if c.Momentum == 0 {
		c.Momentum = d.Momentum
	}
	if c.Decay == 0 {
		c.Decay = d.Decay
	}
	if c.Epochs <= 0 {
		c.Epochs = d.Epochs
	}
	if c.BatchSize <= 0 {
		c.BatchSize = d.BatchSize
	}
	if c.Patience <= 0 {
		c.Patience = d.Patience
	}
	if c.SpecializeEpochs <= 0 {
		c.SpecializeEpochs = d.SpecializeEpochs
	}
	if c.Forest.Trees <= 0 {
		c.Forest = d.Forest
	}
	return c
}

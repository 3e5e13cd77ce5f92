package main

import (
	"math"
	"math/rand"

	"diagnet/internal/core"
	"diagnet/internal/dataset"
	"diagnet/internal/forest"
	"diagnet/internal/mat"
	"diagnet/internal/netsim"
	"diagnet/internal/nn"
	"diagnet/internal/probe"
)

// retrainRoundsMin is the least number of rounds a run makes, and how
// many rounds walk the whole request pool once: every run scores every
// request, so recall is the same number on every run.
const retrainRoundsMin = 4

// retrainShare is the part of the training split one round trains on.
const retrainShare = 3

// retrainRound is one round of the offline workload. A run makes many
// short rounds rather than one long one, so that a slow second of the
// machine moves one round and not the result.
type retrainRound struct {
	trainS    float64   // one TrainGeneral
	latencyMs []float64 // one un-sessioned Model.Diagnose each
	used      usage     // the scoring pass only
	failed    int       // diagnoses that panicked or returned non-finite scores
}

// retrainer is the offline workload bound to a fixture and a seed.
type retrainer struct {
	fx    *fixture
	slice *dataset.Dataset // every retrainShare-th sample of the training split
	cfg   core.Config      // the fixture's, at one epoch
	order []int            // the mixed pool in the seed's order
	next  int              // position in order
	sc    *scorer
}

func newRetrainer(fx *fixture, seed int64) *retrainer {
	rt := &retrainer{
		fx:    fx,
		slice: &dataset.Dataset{Layout: fx.train.Layout},
		cfg:   fx.cfg.Core,
		order: rand.New(rand.NewSource(seed)).Perm(len(fx.mixed)),
		sc:    newScorer(fx.mixed),
	}
	for i := 0; i < fx.train.Len(); i += retrainShare {
		rt.slice.Samples = append(rt.slice.Samples, fx.train.Samples[i])
	}
	rt.cfg.Epochs = 1
	return rt
}

// safeDiagnose turns a panic in the pipeline into a failed diagnosis.
func safeDiagnose(m *core.Model, features []float64, layout probe.Layout) (d *core.Diagnosis) {
	defer func() {
		if recover() != nil {
			d = nil
		}
	}()
	return m.Diagnose(features, layout)
}

func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// round trains a general model for one epoch on the slice (the write side:
// normalizer, network fit with landmark-dropout views, extensible forest),
// then diagnoses the next retrainRoundsMin-th of the pool through the
// un-sessioned path with the fixture's models, trained by this build at the
// full configuration, and scores them against the ground truth. Spans
// go to t; a nil t records none.
func (rt *retrainer) round(t *tracer, trace int) retrainRound {
	var r retrainRound
	r.trainS = t.rung(trace, "core.train_general", "", func() {
		core.TrainGeneral(rt.slice, rt.fx.known, rt.cfg)
	}).Seconds()

	chunk := (len(rt.order) + retrainRoundsMin - 1) / retrainRoundsMin
	before := readUsage()
	for n := 0; n < chunk; n++ {
		idx := rt.order[rt.next]
		rt.next = (rt.next + 1) % len(rt.order)
		req := &rt.fx.mixed[idx]
		layout := probe.NewLayout(req.req.Landmarks)
		m := rt.fx.bundle.ModelFor(req.req.ServiceID)
		var d *core.Diagnosis
		took := t.rung(trace, "core.model_diagnose", "", func() { d = safeDiagnose(m, req.req.Features, layout) })
		r.latencyMs = append(r.latencyMs, float64(took.Nanoseconds())/1e6)
		if d == nil || !finite(d.Final) || !finite(d.Coarse) {
			r.failed++
			continue
		}
		rank := 0
		for k, j := range d.Ranked()[:5] {
			if j == req.cause {
				rank = k + 1
			}
		}
		rt.sc.record(idx, rank)
	}
	after := readUsage()
	r.used = usage{cpu: after.cpu - before.cpu, alloc: after.alloc - before.alloc}
	return r
}

// endToEnd computes the round's gated metrics.
func (r *retrainRound) endToEnd(rt *retrainer) values {
	v := values{
		"latency_p50_ms":   median(r.latencyMs),
		"throughput_per_s": float64(rt.slice.Len()*rt.cfg.Epochs) / r.trainS,
	}
	if ok := len(r.latencyMs) - r.failed; ok > 0 {
		v["cpu_ms_per_diagnosis"] = float64(r.used.cpu.Nanoseconds()) / 1e6 / float64(ok)
		v["alloc_kb_per_diagnosis"] = float64(r.used.alloc) / 1024 / float64(ok)
	}
	return v
}

// trainingSpans times the training-side entry points the serving ladder
// never reaches: dataset generation, one forest fit, one epoch of network
// fitting and the specialization of the three most frequent services, each
// through its package's public function.
func trainingSpans(fx *fixture, t *tracer, trace int) values {
	v := values{}
	timed := func(name string, fn func()) float64 { return t.rung(trace, name, "", fn).Seconds() }
	v["dataset.generate.s"] = timed("dataset.generate", func() {
		dataset.Generate(dataset.GenConfig{
			World:          netsim.NewWorld(netsim.Config{Seed: 1}),
			NominalSamples: fx.cfg.Nominal,
			FaultSamples:   fx.cfg.Fault,
			Seed:           datasetSeed,
		})
	})

	general := fx.bundle.General
	train := fx.train
	var specializeS []float64
	for _, id := range fx.topServices {
		specializeS = append(specializeS, timed("core.specialize", func() { general.Specialize(train, id) }))
	}
	v["core.specialize.s"] = median(specializeS)

	causes := fx.full.NumFeatures()
	fullX := make([][]float64, train.Len())
	causeLabels := make([]int, train.Len())
	x := mat.New(train.Len(), general.TrainLayout.NumFeatures())
	families := make([]int, train.Len())
	for i := range train.Samples {
		s := &train.Samples[i]
		fullX[i] = fx.full.ZeroMask(s.Features, general.Known)
		causeLabels[i] = causes // the forest's "unknown" class, for nominal samples
		if s.Degraded {
			causeLabels[i] = s.Cause
		}
		general.Norm.ApplyInto(fx.full.Project(s.Features, general.TrainLayout), general.TrainLayout, x.Row(i))
		families[i] = int(s.Family)
	}
	v["forest.fit.s"] = timed("forest.fit", func() {
		forest.FitExtensible(fullX, causeLabels, causes, fx.cfg.Core.Forest)
	})
	net := general.Net.Clone()
	v["nn.fit.s"] = timed("nn.fit", func() {
		nn.NewTrainer(net).Fit(x, families, nil, nil, nn.TrainConfig{Epochs: 1, BatchSize: fx.cfg.Core.BatchSize, Seed: 1})
	})
	return v
}

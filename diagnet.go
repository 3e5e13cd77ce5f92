// Package diagnet is a from-scratch Go reproduction of "Towards
// Internet-Scale Convolutional Root-Cause Analysis with DiagNet"
// (Bonniot, Neumann, Taïani — IPDPS 2021).
//
// DiagNet diagnoses the root cause of end-user QoE degradations on
// Internet services from active measurements against landmark servers. Its
// inference model is a small convolutional network with a landmark-pooling
// layer (so the set of landmarks may change after training), a
// gradient-based attention mechanism that maps coarse fault-family
// predictions back onto individual input features, a multi-label score
// weighting step, and ensemble averaging with an extensible random forest.
//
// The package exposes the paper's five layers:
//
//   - The inference model and its file: DefaultConfig, TrainGeneral,
//     (*Model).Specialize, (*Model).Diagnose, and NewBundle, (*Bundle).Save
//     and LoadBundle (a lone model is a bundle with no services).
//   - The simulated multi-cloud deployment used by the paper's evaluation:
//     NewWorld, Generate, Catalog and friends (see DESIGN.md for how the
//     simulator substitutes the authors' testbed).
//   - The live measurement plane: LandmarkServer, a real HTTP landmark
//     service, and its client, the fault-tolerant NewMultiProber, with
//     NewFlakyHandler for chaos tests.
//   - The client agent, the client box of Fig. 1: NewAgent over a
//     MeasurementSource (NewSimSource), and RecordTrace/LoadTrace to
//     record and replay a probing session.
//   - The experiment harness regenerating every figure of the paper:
//     NewLab and the Fig5..Fig10/Ablation methods.
//
// The analysis service, its serving engine and the replicated tier are
// run by cmd/diagnetd and cmd/diagnet-router; examples/operate boots
// them in one process.
//
// A minimal end-to-end session:
//
//	world := diagnet.NewWorld(diagnet.WorldConfig{Seed: 1})
//	data := diagnet.Generate(diagnet.GenConfig{World: world,
//		NominalSamples: 4000, FaultSamples: 7000, Seed: 11})
//	train, test := data.Split(0.8, diagnet.HiddenLandmarks(), 13)
//	res := diagnet.TrainGeneral(train, diagnet.KnownRegions(), diagnet.DefaultConfig())
//	diag := res.Model.Diagnose(test.Samples[0].Features, diagnet.FullLayout())
//	fmt.Println(diagnet.FullLayout().FeatureName(diag.Ranked()[0]))
package diagnet

import (
	"context"
	"io"
	"net/http"

	"diagnet/internal/collector"
	"diagnet/internal/core"
	"diagnet/internal/dataset"
	"diagnet/internal/experiments"
	"diagnet/internal/landmark"
	"diagnet/internal/netsim"
	"diagnet/internal/probe"
	"diagnet/internal/resilience"
	"diagnet/internal/services"
)

// The inference model and its file.
type (
	// Config carries the Table I hyperparameters of the inference model.
	Config = core.Config
	// Model is a trained DiagNet instance (general or specialized).
	Model = core.Model
	// TrainResult bundles a model with its training history.
	TrainResult = core.TrainResult
	// Diagnosis is the ranked root-cause output for one degraded sample.
	Diagnosis = core.Diagnosis
	// Bundle packages a general model with its specialized variants.
	Bundle = core.Bundle
)

// DefaultConfig returns the paper's Table I hyperparameters.
func DefaultConfig() Config { return core.DefaultConfig() }

// TrainGeneral trains a general DiagNet model on a training split, using
// the landmarks of knownRegions (§IV-A-d hides the rest until inference).
func TrainGeneral(train *Dataset, knownRegions []int, cfg Config) *TrainResult {
	return core.TrainGeneral(train, knownRegions, cfg)
}

// NewBundle wraps a general model into a bundle.
func NewBundle(general *Model) *Bundle { return core.NewBundle(general) }

// LoadBundle reads a bundle written by (*Bundle).Save.
func LoadBundle(r io.Reader) (*Bundle, error) { return core.LoadBundle(r) }

// The simulated deployment and its data.
type (
	// World is the simulated multi-cloud deployment.
	World = netsim.World
	// WorldConfig seeds a World.
	WorldConfig = netsim.Config
	// Region is one cloud region.
	Region = netsim.Region
	// Fault is one injected netem-style fault.
	Fault = netsim.Fault
	// FaultKind enumerates the six §IV-A-e fault families.
	FaultKind = netsim.FaultKind
	// Env is a point in time plus the concurrently active faults.
	Env = netsim.Env
	// Dataset is a labeled sample collection.
	Dataset = dataset.Dataset
	// GenConfig controls dataset generation.
	GenConfig = dataset.GenConfig
	// Layout describes a feature-vector arrangement over landmarks.
	Layout = probe.Layout
	// Service is a mock-up online service (Table II).
	Service = services.Service
)

// The fault kinds the examples inject; internal/netsim has all six
// §IV-A-e families.
const (
	FaultServiceDelay = netsim.FaultServiceDelay
	FaultLoss         = netsim.FaultLoss
)

// NewWorld builds the simulated ten-region, four-provider deployment.
func NewWorld(cfg WorldConfig) *World { return netsim.NewWorld(cfg) }

// DefaultRegions lists the ten regions of the default world.
func DefaultRegions() []Region { return netsim.DefaultRegions() }

// HiddenLandmarks returns the landmark regions hidden during training in
// the paper's evaluation (EAST, GRAV, SEAT).
func HiddenLandmarks() []int { return netsim.HiddenLandmarks() }

// KnownRegions returns all default regions minus the hidden landmarks —
// the training-time landmark set of the paper.
func KnownRegions() []int { return experiments.KnownRegionsOf(netsim.HiddenLandmarks()) }

// NewFault returns a fault of the given kind with the paper's magnitude.
func NewFault(kind FaultKind, region int) Fault { return netsim.NewFault(kind, region) }

// Generate produces a labeled dataset from the simulated deployment.
func Generate(cfg GenConfig) *Dataset { return dataset.Generate(cfg) }

// LoadDataset reads a dataset written by (*Dataset).Save.
func LoadDataset(r io.Reader) (*Dataset, error) { return dataset.Load(r) }

// FullLayout returns the feature layout over all ten landmarks (m = 55).
func FullLayout() Layout { return probe.FullLayout() }

// NewLayout builds a layout over an arbitrary landmark region set.
func NewLayout(landmarks []int) Layout { return probe.NewLayout(landmarks) }

// Catalog returns the twelve deployed mock-up services (Table II
// archetypes across the three service regions).
func Catalog() []Service { return services.Catalog() }

// TrainingServices returns the eight services the general model trains on.
func TrainingServices() []Service { return services.TrainingSet() }

// The live measurement plane.
type (
	// LandmarkServer is the stateless public HTTP landmark service.
	LandmarkServer = landmark.Server
	// ProberConfig tunes the probing cost.
	ProberConfig = landmark.ProberConfig
	// Measurement is one landmark probe result.
	Measurement = landmark.Measurement
	// MultiProber probes many landmarks concurrently with retries,
	// per-landmark circuit breakers and partial-round results.
	MultiProber = landmark.MultiProber
	// MultiProberConfig tunes the fault-tolerant prober.
	MultiProberConfig = landmark.MultiProberConfig
	// ProbeResult is one landmark's outcome in a probing round.
	ProbeResult = landmark.ProbeResult
	// LandmarkHealth snapshots one landmark's probing history.
	LandmarkHealth = landmark.LandmarkHealth
	// FlakyHandler wraps an HTTP handler with fault injection (chaos
	// testing of the probing plane).
	FlakyHandler = landmark.FlakyHandler
	// FlakyConfig is the fault mix a FlakyHandler injects.
	FlakyConfig = landmark.FlakyConfig
	// RetryPolicy retries transient failures with capped backoff.
	RetryPolicy = resilience.RetryPolicy
)

// NewMultiProber returns a fault-tolerant multi-landmark prober.
func NewMultiProber(cfg MultiProberConfig) *MultiProber { return landmark.NewMultiProber(cfg) }

// NewFlakyHandler wraps inner with configurable fault injection.
func NewFlakyHandler(inner http.Handler, cfg FlakyConfig) *FlakyHandler {
	return landmark.NewFlakyHandler(inner, cfg)
}

// The client agent (the client box of Fig. 1).
type (
	// Agent is the periodic probing loop that flags QoE-degraded rounds.
	Agent = collector.Agent
	// MeasurementSource abstracts where an agent's rounds come from.
	MeasurementSource = collector.Source
	// Trace is a recorded probing session (record/replay).
	Trace = collector.Trace
)

// NewAgent builds a probing agent over a measurement source, with the
// default degradation ratio.
func NewAgent(source MeasurementSource) *Agent {
	return collector.NewAgent(source, collector.DegradeRatio)
}

// NewSimSource adapts the simulated world as a measurement source for one
// client watching one service; faultsAt (may be nil) schedules faults per
// tick.
func NewSimSource(w *World, client int, svc Service, layout Layout, faultsAt func(int64) []Fault, seed int64) MeasurementSource {
	return collector.NewSimSource(w, client, svc, layout, faultsAt, seed)
}

// RecordTrace runs a source at the given ticks into a replayable trace.
func RecordTrace(ctx context.Context, src MeasurementSource, ticks []int64) (*Trace, error) {
	return collector.RecordTrace(ctx, src, ticks)
}

// LoadTrace reads a trace written by (*Trace).Save.
func LoadTrace(r io.Reader) (*Trace, error) { return collector.LoadTrace(r) }

// The experiment harness.
type (
	// Lab is a fully trained evaluation pipeline.
	Lab = experiments.Lab
	// Profile sizes an experiment run.
	Profile = experiments.Profile
)

// NewLab builds a fully trained evaluation pipeline for an experiment
// profile; its Fig5..Fig10 and Ablation methods regenerate the paper's
// figures.
func NewLab(p Profile, log func(string, ...any)) *Lab { return experiments.NewLab(p, log) }

// Experiment profiles.
func QuickProfile() Profile   { return experiments.Quick() }
func DefaultProfile() Profile { return experiments.Default() }
func PaperProfile() Profile   { return experiments.Paper() }

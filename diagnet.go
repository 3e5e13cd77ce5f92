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
// The package exposes four layers of functionality:
//
//   - The inference model: DefaultConfig, TrainGeneral, (*Model).Specialize,
//     (*Model).Diagnose, Save/Load.
//   - The simulated multi-cloud deployment used by the paper's evaluation:
//     NewWorld, Generate, Catalog and friends (see DESIGN.md for how the
//     simulator substitutes the authors' testbed).
//   - The live measurement plane: LandmarkServer and LandmarkProber, a
//     real HTTP landmark service and its client.
//   - The experiment harness regenerating every figure of the paper:
//     NewLab and the Fig5..Fig10/Ablation methods.
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
	"io"
	"log/slog"
	"net/http"

	"diagnet/internal/analysis"
	"diagnet/internal/cluster"
	"diagnet/internal/collector"
	"diagnet/internal/core"
	"diagnet/internal/dataset"
	"diagnet/internal/experiments"
	"diagnet/internal/landmark"
	"diagnet/internal/netsim"
	"diagnet/internal/probe"
	"diagnet/internal/resilience"
	"diagnet/internal/services"
	"diagnet/internal/serving"
	"diagnet/internal/telemetry"
	"diagnet/internal/tracing"
)

// Telemetry types (DESIGN.md §10). Every layer of the pipeline records into
// one process-wide registry; Metrics exports it.
type (
	// MetricsExport is a point-in-time copy of every counter, gauge and
	// histogram in the process, sorted by name (JSON-marshalable; the
	// document the daemons serve at /v1/metrics).
	MetricsExport = telemetry.Export
	// HistogramPoint is one latency/size distribution with its full
	// bucket state: Count, Sum, any Quantile, the tail exemplar.
	HistogramPoint = telemetry.HistogramPoint
	// MetricsRegistry is a named-metric registry; Default() is the
	// process-wide one all DiagNet packages record into.
	MetricsRegistry = telemetry.Registry
)

// Metrics exports the process-wide telemetry registry: per-stage Diagnose
// timings, HTTP route latencies, probing-plane health counters, training
// progress. Serve it as JSON or feed it to a scraper.
func Metrics() MetricsExport { return telemetry.Default().Export() }

// MetricsRegistryDefault returns the process-wide registry itself, for
// callers that want to add their own counters next to DiagNet's.
func MetricsRegistryDefault() *MetricsRegistry { return telemetry.Default() }

// SetTelemetryEnabled toggles latency timing globally (counters stay on).
// Disabled timing reduces instrumentation to one atomic load per stage.
func SetTelemetryEnabled(on bool) { telemetry.SetEnabled(on) }

// Request-tracing types (DESIGN.md §12). Distinct from Trace/RecordTrace
// below, which record probe *sessions* for replay: a request trace (Span,
// TraceRecord) follows one diagnosis execution across agent, analysis
// service, serving engine and core pipeline, keyed by a W3C traceparent.
type (
	// Span is one timed operation inside a request trace; nil is a valid
	// no-op span (tracing disabled).
	Span = tracing.Span
	// SpanContext is the propagated trace identity (trace ID, span ID).
	SpanContext = tracing.SpanContext
	// TraceRecord is one completed, retrievable request trace.
	TraceRecord = tracing.TraceRecord
	// TraceSummary is the listing form of a kept trace.
	TraceSummary = tracing.TraceSummary
	// TracingConfig tunes sampling, the slow threshold and ring capacities.
	TracingConfig = tracing.Config
)

// StartSpan opens a span as a child of the one in ctx (or a new trace
// root) on the process-wide tracer; see internal/tracing for semantics.
var StartSpan = tracing.StartSpan

// SetTracingEnabled toggles request-trace recording process-wide; disabled,
// every instrumented call site costs one atomic load plus a branch.
func SetTracingEnabled(on bool) { tracing.SetEnabled(on) }

// ConfigureTracing tunes the process-wide tracer (sampling rate, slow
// threshold, ring capacities).
func ConfigureTracing(cfg TracingConfig) { tracing.Configure(cfg) }

// Traces lists the kept request traces, newest first: slow and error
// traces always, normal traffic subject to head sampling.
func Traces() []TraceSummary { return tracing.Default().Traces() }

// TraceByID returns one kept request trace by its hex trace ID.
func TraceByID(id string) (*TraceRecord, bool) { return tracing.Default().Trace(id) }

// NewLogHandler returns the shared slog handler DiagNet commands use: text
// or json output with trace_id/span_id stamped from the record's context.
func NewLogHandler(w io.Writer, format string) slog.Handler { return tracing.NewLogHandler(w, format) }

// Model and training types.
type (
	// Config carries the Table I hyperparameters of the inference model.
	Config = core.Config
	// Model is a trained DiagNet instance (general or specialized).
	Model = core.Model
	// TrainResult bundles a model with its training history.
	TrainResult = core.TrainResult
	// Diagnosis is the ranked root-cause output for one degraded sample.
	Diagnosis = core.Diagnosis
)

// Simulation and data types.
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
	// Sample is one (client, service, scenario) observation.
	Sample = dataset.Sample
	// Layout describes a feature-vector arrangement over landmarks.
	Layout = probe.Layout
	// Family is a coarse fault family.
	Family = probe.Family
	// Metric is one of the k per-landmark measurements.
	Metric = probe.Metric
	// Service is a mock-up online service (Table II).
	Service = services.Service
)

// Measurement-plane types.
type (
	// LandmarkServer is the stateless public HTTP landmark service.
	LandmarkServer = landmark.Server
	// LandmarkProber measures landmarks over HTTP.
	LandmarkProber = landmark.Prober
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
	// BreakerConfig tunes per-landmark circuit breakers.
	BreakerConfig = resilience.BreakerConfig
)

// NewMultiProber returns a fault-tolerant multi-landmark prober.
func NewMultiProber(cfg MultiProberConfig) *MultiProber { return landmark.NewMultiProber(cfg) }

// NewFlakyHandler wraps inner with configurable fault injection.
func NewFlakyHandler(inner http.Handler, cfg FlakyConfig) *FlakyHandler {
	return landmark.NewFlakyHandler(inner, cfg)
}

// Experiment harness types.
type (
	// Lab is a fully trained evaluation pipeline.
	Lab = experiments.Lab
	// Profile sizes an experiment run.
	Profile = experiments.Profile
)

// Analysis-service types (the central box of Fig. 1).
type (
	// AnalysisServer serves diagnoses over HTTP from trained models.
	AnalysisServer = analysis.Server
	// AnalysisClient talks to a remote analysis service.
	AnalysisClient = analysis.Client
	// DiagnoseRequest is the analysis service's request payload.
	DiagnoseRequest = analysis.DiagnoseRequest
	// DiagnoseResponse is the analysis service's answer.
	DiagnoseResponse = analysis.DiagnoseResponse
)

// NewAnalysisServer wraps a general model as an HTTP diagnosis service.
func NewAnalysisServer(general *Model) *AnalysisServer { return analysis.NewServer(general) }

// NewAnalysisClient returns a client for an analysis service.
func NewAnalysisClient(baseURL string) *AnalysisClient { return analysis.NewClient(baseURL) }

// Serving-engine types (DESIGN.md §11): micro-batching from backlog, the
// versioned model registry with atomic hot swap, and admission control.
type (
	// ServingEngine coalesces concurrent diagnoses into fused micro-batches.
	ServingEngine = serving.Engine
	// ServingConfig tunes batching, queueing and the worker pool.
	ServingConfig = serving.Config
	// ServingRequest is one diagnosis submission to the engine.
	ServingRequest = serving.Request
	// ServingResult is a diagnosis plus its model-version provenance.
	ServingResult = serving.Result
	// ModelRegistry holds named model versions and the active snapshot.
	ModelRegistry = serving.Registry
	// ModelVersionInfo describes one registered model version.
	ModelVersionInfo = serving.VersionInfo
)

// NewServingEngine starts a serving engine; promote a version through its
// Registry before submitting.
func NewServingEngine(cfg ServingConfig) *ServingEngine { return serving.New(cfg) }

// NewAnalysisServerFromEngine wraps an externally configured serving
// engine as an HTTP diagnosis service.
func NewAnalysisServerFromEngine(e *ServingEngine) *AnalysisServer {
	return analysis.NewServerFromEngine(e)
}

// Replicated serving tier (DESIGN.md §14): cmd/diagnet-router fans
// traffic across diagnetd replicas with health- and load-aware
// placement, failover, scatter-gather batches and honored backpressure.
type (
	// ClusterRouter routes client traffic across a replica pool; it is an
	// http.Handler serving the same /v1 API as one replica.
	ClusterRouter = cluster.Router
	// ClusterConfig tunes routing, health sweeps and breakers.
	ClusterConfig = cluster.Config
	// ClusterStats is the router's failover/backpressure counters.
	ClusterStats = cluster.Stats
	// ClusterReplicaStatus is one replica's health/load snapshot.
	ClusterReplicaStatus = cluster.ReplicaStatus
)

// NewClusterRouter fronts the given diagnetd replica base URLs; Close it
// to stop the health sweeper.
func NewClusterRouter(urls []string, cfg ClusterConfig) *ClusterRouter {
	return cluster.NewRouter(urls, cfg)
}

// Client-agent types (the client box of Fig. 1).
type (
	// Agent is the periodic probing loop with QoE-triggered events.
	Agent = collector.Agent
	// AgentConfig tunes the agent.
	AgentConfig = collector.Config
	// AgentEvent is one QoE degradation with its measurement snapshot.
	AgentEvent = collector.Event
	// MeasurementSource abstracts where an agent's samples come from.
	MeasurementSource = collector.Source
	// Trace is a recorded probing session (record/replay).
	Trace = collector.Trace
)

// NewAgent builds a probing agent over a measurement source.
func NewAgent(source MeasurementSource, features int, cfg AgentConfig) *Agent {
	return collector.NewAgent(source, features, cfg)
}

// NewSimSource adapts the simulated world as a measurement source for one
// client watching one service; faultsAt (may be nil) schedules faults per
// tick.
func NewSimSource(w *World, client int, svc Service, layout Layout, faultsAt func(int64) []Fault, seed int64) MeasurementSource {
	return collector.NewSimSource(w, client, svc, layout, faultsAt, seed)
}

// RecordTrace samples a source at the given ticks into a replayable trace.
func RecordTrace(src MeasurementSource, layout Layout, ticks []int64) *Trace {
	return collector.RecordTrace(src, layout, ticks)
}

// LoadTrace reads a trace written by (*Trace).Save.
func LoadTrace(r io.Reader) (*Trace, error) { return collector.LoadTrace(r) }

// DefaultConfig returns the paper's Table I hyperparameters.
func DefaultConfig() Config { return core.DefaultConfig() }

// TrainGeneral trains a general DiagNet model on a training split, using
// the landmarks of knownRegions (§IV-A-d hides the rest until inference).
func TrainGeneral(train *Dataset, knownRegions []int, cfg Config) *TrainResult {
	return core.TrainGeneral(train, knownRegions, cfg)
}

// Load reads a model written by (*Model).Save.
func Load(r io.Reader) (*Model, error) { return core.Load(r) }

// Bundle packages a general model with its specialized variants.
type Bundle = core.Bundle

// NewBundle wraps a general model into a bundle.
func NewBundle(general *Model) *Bundle { return core.NewBundle(general) }

// LoadBundle reads a bundle written by (*Bundle).Save.
func LoadBundle(r io.Reader) (*Bundle, error) { return core.LoadBundle(r) }

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

// Injectable fault kinds (§IV-A-e).
const (
	FaultRate         = netsim.FaultRate
	FaultServiceDelay = netsim.FaultServiceDelay
	FaultGatewayDelay = netsim.FaultGatewayDelay
	FaultJitter       = netsim.FaultJitter
	FaultLoss         = netsim.FaultLoss
	FaultCPUStress    = netsim.FaultCPUStress
)

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

// NewProber returns a landmark prober with keep-alive transport.
func NewProber(cfg ProberConfig) *LandmarkProber { return landmark.NewProber(cfg) }

// NewLab builds a fully trained evaluation pipeline for an experiment
// profile; its Fig5..Fig10 and Ablation methods regenerate the paper's
// figures.
func NewLab(p Profile, log func(string, ...any)) *Lab { return experiments.NewLab(p, log) }

// Experiment profiles.
func QuickProfile() Profile   { return experiments.Quick() }
func DefaultProfile() Profile { return experiments.Default() }
func PaperProfile() Profile   { return experiments.Paper() }

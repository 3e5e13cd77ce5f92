// Package dataset generates, splits and persists the labeled sample
// collections the paper's evaluation is built on (§IV-A-c/e): clients
// probing all landmarks and visiting mock-up services while netem-style
// faults are injected uniformly across regions and fault families, with
// QoE-based flagging ("in many cases the QoE was not degraded despite the
// injected fault(s)" — such samples become nominal), and the hidden-
// landmark policy (faults near EAST/GRAV/SEAT only ever appear in the test
// set).
package dataset

import (
	"encoding/gob"
	"fmt"
	"io"
	"runtime"
	"sync"

	"diagnet/internal/netsim"
	"diagnet/internal/probe"
	"diagnet/internal/qoe"
	"diagnet/internal/services"
	"diagnet/internal/stats"
)

// Sample is one (client, service, scenario) observation.
type Sample struct {
	// Features is the raw (unnormalized) measurement vector under the
	// dataset's full layout.
	Features []float64
	Service  int // service ID
	Client   int // client region
	Tick     int64
	// Injected lists every fault active in the scenario (not only the
	// root cause); needed for hidden-fault routing and Fig. 10.
	Injected []netsim.Fault

	// Ground truth.
	Degraded bool
	// Cause is the root-cause feature index under the full layout, or -1
	// for nominal samples.
	Cause int
	// Family is the coarse fault family (FamNominal when not degraded).
	Family probe.Family
	// FaultRegion is the region of the root-cause fault (-1 if nominal).
	FaultRegion int
	// FaultKind is the root-cause fault kind (-1 if nominal).
	FaultKind int
}

// HasFaultIn reports whether any injected fault (root cause or not) sits
// in one of the given regions.
func (s *Sample) HasFaultIn(regions []int) bool {
	for _, f := range s.Injected {
		for _, r := range regions {
			if f.Region == r {
				return true
			}
		}
	}
	return false
}

// Dataset is a labeled sample collection under a fixed full layout.
type Dataset struct {
	Layout  probe.Layout
	Samples []Sample
}

// GenConfig controls Generate.
type GenConfig struct {
	World *netsim.World
	// Services visited by clients; nil means the full catalog.
	Services []services.Service
	// ClientRegions with active clients; nil means every region.
	ClientRegions []int
	// FaultRegions where faults are injected; nil means the paper's five.
	FaultRegions []int
	// NominalSamples and FaultSamples are the approximate sample counts
	// for fault-free and fault-injected scenarios. Fault-scenario samples
	// whose QoE is not degraded are flagged nominal, as in the paper.
	NominalSamples int
	FaultSamples   int
	// PairsPerScenario is how many (client, service) observations each
	// scenario produces.
	PairsPerScenario int
	// MultiFaultEvery injects a second simultaneous fault in one of every
	// N fault scenarios; 0 disables multi-fault scenarios.
	MultiFaultEvery int
	Seed            int64
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Services == nil {
		c.Services = services.Catalog()
	}
	if c.ClientRegions == nil {
		c.ClientRegions = allRegions(c.World.NumRegions())
	}
	if c.FaultRegions == nil {
		c.FaultRegions = netsim.FaultRegions()
	}
	if c.PairsPerScenario <= 0 {
		c.PairsPerScenario = 4
	}
	if c.MultiFaultEvery == 0 {
		c.MultiFaultEvery = 8
	}
	return c
}

func allRegions(n int) []int {
	rs := make([]int, n)
	for i := range rs {
		rs[i] = i
	}
	return rs
}

// scenario is one point in time with a fault set.
type scenario struct {
	tick   int64
	faults []netsim.Fault
}

// Generate produces a dataset. Scenarios are sharded over GOMAXPROCS
// workers with per-scenario RNG streams, so the output is identical
// regardless of parallelism. Faults cycle uniformly over
// (region × fault kind) combinations to avoid bias toward frequent causes
// (§IV-A-e).
func Generate(cfg GenConfig) *Dataset {
	cfg = cfg.withDefaults()
	if cfg.World == nil {
		panic("dataset: GenConfig.World is required")
	}
	layout := probe.FullLayout()
	if cfg.World.NumRegions() != layout.NumLandmarks() {
		panic("dataset: world must have one landmark per region of the full layout")
	}

	// Fault combinations in a fixed order.
	var combos []netsim.Fault
	for _, kind := range netsim.AllFaultKinds() {
		for _, region := range cfg.FaultRegions {
			combos = append(combos, netsim.NewFault(kind, region))
		}
	}

	nNominal := (cfg.NominalSamples + cfg.PairsPerScenario - 1) / cfg.PairsPerScenario
	nFault := (cfg.FaultSamples + cfg.PairsPerScenario - 1) / cfg.PairsPerScenario
	scenarios := make([]scenario, 0, nNominal+nFault)
	for i := 0; i < nNominal; i++ {
		scenarios = append(scenarios, scenario{tick: int64(len(scenarios) * 3)})
	}
	for j := 0; j < nFault; j++ {
		sc := scenario{tick: int64(len(scenarios) * 3)}
		sc.faults = []netsim.Fault{combos[j%len(combos)]}
		if cfg.MultiFaultEvery > 0 && j%cfg.MultiFaultEvery == cfg.MultiFaultEvery-1 {
			second := combos[(j*7+5)%len(combos)]
			if second.Region != sc.faults[0].Region {
				sc.faults = append(sc.faults, second)
			}
		}
		scenarios = append(scenarios, sc)
	}

	q := qoe.New(cfg.World)
	prober := probe.Prober{W: cfg.World}
	perScenario := make([][]Sample, len(scenarios))
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for si := range next {
				perScenario[si] = genScenario(cfg, layout, q, prober, scenarios[si], int64(si))
			}
		}()
	}
	for si := range scenarios {
		next <- si
	}
	close(next)
	wg.Wait()

	d := &Dataset{Layout: layout}
	for _, ss := range perScenario {
		d.Samples = append(d.Samples, ss...)
	}
	return d
}

func genScenario(cfg GenConfig, layout probe.Layout, q *qoe.Model, prober probe.Prober, sc scenario, stream int64) []Sample {
	rng := stats.NewRand(cfg.Seed, stream)
	env := netsim.Env{Tick: sc.tick, Faults: sc.faults}

	// Client-side faults only manifest for clients in the fault region.
	clientSideRegion := -1
	for _, f := range sc.faults {
		if f.Kind.ClientSide() {
			clientSideRegion = f.Region
		}
	}
	if clientSideRegion >= 0 && !contains(cfg.ClientRegions, clientSideRegion) {
		// No active client can observe this fault; skip the scenario.
		return nil
	}

	out := make([]Sample, 0, cfg.PairsPerScenario)
	for p := 0; p < cfg.PairsPerScenario; p++ {
		client := cfg.ClientRegions[rng.Intn(len(cfg.ClientRegions))]
		if clientSideRegion >= 0 {
			client = clientSideRegion
		}
		svc := cfg.Services[rng.Intn(len(cfg.Services))]
		s := Sample{
			Features:    prober.Sample(client, layout, env, rng),
			Service:     svc.ID,
			Client:      client,
			Tick:        sc.tick,
			Injected:    append([]netsim.Fault(nil), sc.faults...),
			Cause:       -1,
			Family:      probe.FamNominal,
			FaultRegion: -1,
			FaultKind:   -1,
		}
		if idx, degraded := q.RootCause(client, svc, env); degraded {
			f := env.Faults[idx]
			cause, ok := layout.CauseOf(f)
			if !ok {
				panic("dataset: cause not representable in full layout")
			}
			s.Degraded = true
			s.Cause = cause
			s.Family = probe.FamilyOfFault(f.Kind)
			s.FaultRegion = f.Region
			s.FaultKind = int(f.Kind)
		}
		out = append(out, s)
	}
	return out
}

func contains(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

// Counts summarizes a dataset.
type Counts struct {
	Total, Nominal, Degraded int
	HiddenFaultDegraded      int // degraded samples whose scenario touches a hidden fault region
}

// Count tallies the dataset, treating `hiddenRegions` as the hidden set.
func (d *Dataset) Count(hiddenRegions []int) Counts {
	var c Counts
	for i := range d.Samples {
		s := &d.Samples[i]
		c.Total++
		if s.Degraded {
			c.Degraded++
			if s.HasFaultIn(hiddenRegions) {
				c.HiddenFaultDegraded++
			}
		} else {
			c.Nominal++
		}
	}
	return c
}

// Split partitions the dataset: samples from scenarios with any fault in a
// hidden region always land in test (the paper forces hidden-landmark
// faults out of training); the rest is split trainFrac/1−trainFrac,
// stratified by the degraded flag.
func (d *Dataset) Split(trainFrac float64, hiddenRegions []int, seed int64) (train, test *Dataset) {
	train = &Dataset{Layout: d.Layout}
	test = &Dataset{Layout: d.Layout}
	var nominal, degraded []int
	for i := range d.Samples {
		s := &d.Samples[i]
		if s.HasFaultIn(hiddenRegions) {
			test.Samples = append(test.Samples, *s)
			continue
		}
		if s.Degraded {
			degraded = append(degraded, i)
		} else {
			nominal = append(nominal, i)
		}
	}
	rng := stats.NewRand(seed, 0)
	for _, group := range [][]int{nominal, degraded} {
		group := append([]int(nil), group...)
		rng.Shuffle(len(group), func(a, b int) { group[a], group[b] = group[b], group[a] })
		cut := int(float64(len(group)) * trainFrac)
		for _, i := range group[:cut] {
			train.Samples = append(train.Samples, d.Samples[i])
		}
		for _, i := range group[cut:] {
			test.Samples = append(test.Samples, d.Samples[i])
		}
	}
	return train, test
}

// FilterService returns the samples visiting service id.
func (d *Dataset) FilterService(id int) *Dataset {
	out := &Dataset{Layout: d.Layout}
	for i := range d.Samples {
		if d.Samples[i].Service == id {
			out.Samples = append(out.Samples, d.Samples[i])
		}
	}
	return out
}

// FilterOtherServices returns the samples NOT visiting service id.
func (d *Dataset) FilterOtherServices(id int) *Dataset {
	out := &Dataset{Layout: d.Layout}
	for i := range d.Samples {
		if d.Samples[i].Service != id {
			out.Samples = append(out.Samples, d.Samples[i])
		}
	}
	return out
}

// SampleN returns up to n samples drawn without replacement with a seeded
// shuffle.
func (d *Dataset) SampleN(n int, seed int64) *Dataset {
	out := &Dataset{Layout: d.Layout}
	if n >= d.Len() {
		out.Samples = append(out.Samples, d.Samples...)
		return out
	}
	idx := stats.NewRand(seed, 17).Perm(d.Len())[:n]
	for _, i := range idx {
		out.Samples = append(out.Samples, d.Samples[i])
	}
	return out
}

// Append adds one sample in place.
func (d *Dataset) Append(s Sample) {
	d.Samples = append(d.Samples, s)
}

// Concat returns a dataset containing the samples of d followed by e's.
func (d *Dataset) Concat(e *Dataset) *Dataset {
	out := &Dataset{Layout: d.Layout}
	out.Samples = append(append(out.Samples, d.Samples...), e.Samples...)
	return out
}

// Degraded returns only the QoE-degraded samples (the ones root-cause
// analysis is evaluated on).
func (d *Dataset) Degraded() *Dataset {
	out := &Dataset{Layout: d.Layout}
	for i := range d.Samples {
		if d.Samples[i].Degraded {
			out.Samples = append(out.Samples, d.Samples[i])
		}
	}
	return out
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Samples) }

// wire is the gob format of a dataset.
type wire struct {
	Landmarks []int
	Samples   []Sample
}

// Save writes the dataset with gob.
func (d *Dataset) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(wire{Landmarks: d.Layout.Landmarks, Samples: d.Samples})
}

// Load reads a dataset written by Save.
func Load(r io.Reader) (*Dataset, error) {
	var wr wire
	if err := gob.NewDecoder(r).Decode(&wr); err != nil {
		return nil, fmt.Errorf("dataset: load: %w", err)
	}
	return &Dataset{Layout: probe.NewLayout(wr.Landmarks), Samples: wr.Samples}, nil
}

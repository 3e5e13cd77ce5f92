package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"

	"diagnet/internal/analysis"
	"diagnet/internal/core"
	"diagnet/internal/dataset"
	"diagnet/internal/netsim"
	"diagnet/internal/probe"
)

// datasetSeed is fixed: the driver compares runs made with different
// -seed values, so the seed may only choose which requests are sent and in
// what order, never the models or the evaluation set behind the recall and
// training-time metrics.
const datasetSeed = 11

// batchSize is the number of samples in one /v1/diagnose-batch request.
const batchSize = 64

// fixtureConfig sizes the fixture; the smoke test narrows it.
type fixtureConfig struct {
	Nominal, Fault int
	Core           core.Config
}

func defaultFixtureConfig() fixtureConfig {
	cfg := core.DefaultConfig()
	// Fixed work: four epochs with early stopping out of reach.
	cfg.Epochs, cfg.Patience, cfg.SpecializeEpochs = 4, 100, 2
	return fixtureConfig{Nominal: 900, Fault: 2000, Core: cfg}
}

// request is one generated diagnosis request with its ground truth and the
// reference answer the served response must match.
type request struct {
	req   analysis.DiagnoseRequest
	body  []byte // JSON of req, what /v1/diagnose receives
	cause int    // ground-truth cause under the request layout, -1 when unrepresentable
	want  answer
}

// answer is the part of a DiagnoseResponse the oracle pins.
type answer struct {
	family       string
	coarse       []float64
	features     []int
	scores       []float64
	modelService int
}

// fixture is everything set-up produces before the stack boots.
type fixture struct {
	cfg         fixtureConfig
	train       *dataset.Dataset
	degraded    *dataset.Dataset // the degraded test samples every request is drawn from
	known       []int
	full        probe.Layout
	layouts     [3]probe.Layout // full (3 unseen landmarks), training, 5-landmark subset
	bundle      *core.Bundle    // private reference models, never served
	blob        []byte          // gob of bundle; every replica decodes its own copy
	topServices []int           // the three most frequent services of the training split

	mixed   []request // degraded test sample × layout, own service id
	uniform []request // degraded test sample, full layout, general model

	datasetGenerateS float64
	trainGeneralS    float64
	specializeS      []float64
}

func knownRegions(full probe.Layout) []int {
	hidden := map[int]bool{}
	for _, r := range netsim.HiddenLandmarks() {
		hidden[r] = true
	}
	var known []int
	for _, r := range full.Landmarks {
		if !hidden[r] {
			known = append(known, r)
		}
	}
	return known
}

// buildFixture generates the dataset, trains the bundle and generates the
// request pools the selected workloads draw from (a pool's reference
// answers cost one diagnosis each, so an unused pool is skipped).
//
// cacheDir, when not empty, holds the trained bundle between runs; fresh
// trains even when it does.
func buildFixture(cfg fixtureConfig, cacheDir string, fresh, needMixed, needUniform bool) (*fixture, error) {
	f := &fixture{cfg: cfg}
	t0 := time.Now()
	data := dataset.Generate(dataset.GenConfig{
		World:          netsim.NewWorld(netsim.Config{Seed: 1}),
		NominalSamples: cfg.Nominal,
		FaultSamples:   cfg.Fault,
		Seed:           datasetSeed,
	})
	f.datasetGenerateS = time.Since(t0).Seconds()
	train, test := data.Split(0.8, netsim.HiddenLandmarks(), 13)
	f.train, f.full = train, data.Layout
	f.known = knownRegions(f.full)
	f.layouts = [3]probe.Layout{f.full, probe.NewLayout(f.known), probe.NewLayout(f.known[:5])}

	perService := map[int]int{}
	for i := range train.Samples {
		perService[train.Samples[i].Service]++
	}
	services := make([]int, 0, len(perService))
	for id := range perService {
		services = append(services, id)
	}
	sort.Ints(services)

	// Training is the same work with the same result on every run of one
	// build, so an untraced run takes the bundle an earlier run left in the
	// cache and spends its time measuring instead; the traced run trains,
	// because it reports how long that takes.
	cache := cachePath(cacheDir, cfg)
	if blob, err := os.ReadFile(cache); err == nil && !fresh {
		f.blob = blob
	} else {
		t0 = time.Now()
		general := core.TrainGeneral(train, f.known, cfg.Core).Model
		f.trainGeneralS = time.Since(t0).Seconds()
		bundle := core.NewBundle(general)
		for _, id := range services {
			t0 = time.Now()
			bundle.Specialized[id] = general.Specialize(train, id).Model
			f.specializeS = append(f.specializeS, time.Since(t0).Seconds())
		}
		var buf bytes.Buffer
		if err := bundle.Save(&buf); err != nil {
			return nil, fmt.Errorf("bench: encode bundle: %w", err)
		}
		f.blob = buf.Bytes()
		if err := writeCache(cache, f.blob); err != nil {
			return nil, fmt.Errorf("bench: cache bundle: %w", err)
		}
	}
	// The private copy is decoded like a replica's, trained or cached.
	var err error
	if f.bundle, err = core.LoadBundle(bytes.NewReader(f.blob)); err != nil {
		return nil, fmt.Errorf("bench: decode bundle: %w", err)
	}
	sort.SliceStable(services, func(a, b int) bool { return perService[services[a]] > perService[services[b]] })
	f.topServices = services[:min(3, len(services))]

	f.degraded = test.Degraded()
	if f.degraded.Len() == 0 {
		return nil, fmt.Errorf("bench: no degraded test samples")
	}
	for i := range f.degraded.Samples {
		s := &f.degraded.Samples[i]
		fault := netsim.NewFault(netsim.FaultKind(s.FaultKind), s.FaultRegion)
		for _, layout := range f.layouts {
			if !needMixed {
				break
			}
			r, err := f.newRequest(s, s.Service, layout, fault)
			if err != nil {
				return nil, err
			}
			f.mixed = append(f.mixed, r)
		}
		if needUniform {
			r, err := f.newRequest(s, -1, f.full, fault)
			if err != nil {
				return nil, err
			}
			f.uniform = append(f.uniform, r)
		}
	}
	return f, nil
}

// cachePath names the cache file of the bundle this binary trains from cfg:
// another build (of the benchmark or of the packages it links) or another
// configuration gets another file. Empty when there is no cache.
func cachePath(dir string, cfg fixtureConfig) string {
	if dir == "" {
		return ""
	}
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", cfg)
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			io.Copy(h, f)
			f.Close()
		}
	}
	return filepath.Join(dir, fmt.Sprintf("bundle-%x.gob", h.Sum(nil)[:8]))
}

// writeCache stores the bundle under path and drops the bundles of other
// builds beside it. The rename makes a half-written file invisible.
func writeCache(path string, blob []byte) error {
	if path == "" {
		return nil
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	old, _ := filepath.Glob(filepath.Join(dir, "bundle-*.gob"))
	for _, p := range old {
		os.Remove(p)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, blob, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// newRequest generates one request and its reference answer, computed with
// the float64 single-sample path on the private bundle.
func (f *fixture) newRequest(s *dataset.Sample, service int, layout probe.Layout, fault netsim.Fault) (request, error) {
	r := request{req: analysis.DiagnoseRequest{
		ServiceID: service,
		Landmarks: layout.Landmarks,
		Features:  f.full.Project(s.Features, layout),
		TopK:      5,
	}}
	body, err := json.Marshal(&r.req)
	if err != nil {
		return r, fmt.Errorf("bench: encode request: %w", err)
	}
	r.body = body
	r.cause = -1
	if c, ok := layout.CauseOf(fault); ok {
		r.cause = c
	}
	m := f.bundle.ModelFor(service)
	r.want = reference(m.Diagnose(r.req.Features, layout), m.ServiceID)
	return r, nil
}

func reference(d *core.Diagnosis, modelService int) answer {
	a := answer{family: d.Family.String(), coarse: append([]float64(nil), d.Coarse...), modelService: modelService}
	for _, j := range d.Ranked()[:5] {
		a.features = append(a.features, j)
		a.scores = append(a.scores, d.Final[j])
	}
	return a
}

// oracleTol is how far a served score may sit from the reference.
const oracleTol = 1e-9

// matches reports whether a served response is the reference answer.
func (a *answer) matches(resp *analysis.DiagnoseResponse) bool {
	if resp == nil || resp.Family != a.family || resp.ModelVersion != "boot" ||
		resp.ModelService != a.modelService ||
		len(resp.Causes) != len(a.features) || len(resp.Coarse) != len(a.coarse) {
		return false
	}
	for i, c := range resp.Causes {
		if c.Feature != a.features[i] || !near(c.Score, a.scores[i]) {
			return false
		}
	}
	for i, p := range resp.Coarse {
		if !near(p, a.coarse[i]) {
			return false
		}
	}
	return true
}

func near(a, b float64) bool {
	return math.Abs(a-b) <= oracleTol // false for NaN
}

// rank returns the 1-based position of the ground-truth cause among the
// served causes, or 0 when it is not among them.
func (r *request) rank(resp *analysis.DiagnoseResponse) int {
	for i, c := range resp.Causes {
		if c.Feature == r.cause {
			return i + 1
		}
	}
	return 0
}

// batchBodies chunks a request order into /v1/diagnose-batch bodies of
// batchSize samples; the last batch wraps around to the head of the order.
func batchBodies(pool []request, order []int) ([][]int, [][]byte, error) {
	n := (len(order) + batchSize - 1) / batchSize
	members := make([][]int, n)
	bodies := make([][]byte, n)
	for b := range members {
		var br analysis.BatchRequest
		for k := 0; k < batchSize; k++ {
			idx := order[(b*batchSize+k)%len(order)]
			members[b] = append(members[b], idx)
			br.Requests = append(br.Requests, pool[idx].req)
		}
		body, err := json.Marshal(&br)
		if err != nil {
			return nil, nil, fmt.Errorf("bench: encode batch: %w", err)
		}
		bodies[b] = body
	}
	return members, bodies, nil
}

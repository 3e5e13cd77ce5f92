// Package soak is the full-stack chaos soak harness: it boots a router,
// a replica fleet, and the continual-learning loop in one process, drives
// a deterministic seeded schedule of chaos events (replica kill/restart,
// checkpoints, injected journal crashes, retrain triggers) under constant
// client load, and asserts the fleet's lifecycle invariants — no
// goroutine or file-descriptor growth, no client-visible 5xx, journals
// that replay clean, and a federated metric view that exactly equals the
// sum of the per-replica registries. See DESIGN.md §17.
package soak

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diagnet/internal/analysis"
	"diagnet/internal/cluster"
	"diagnet/internal/continual"
	"diagnet/internal/core"
	"diagnet/internal/dataset"
	"diagnet/internal/durable"
	"diagnet/internal/forest"
	"diagnet/internal/leakcheck"
	"diagnet/internal/netsim"
	"diagnet/internal/resilience"
	"diagnet/internal/serving"
	"diagnet/internal/stats"
	"diagnet/internal/tracing"
)

// Config parameterizes one soak run.
type Config struct {
	// Seed drives every random draw in the run: the event schedule, the
	// client request mix, the tracing IDs. Same seed, same schedule.
	Seed int64
	// Duration is how long the chaos phase runs (default 10s).
	Duration time.Duration
	// Replicas is the fleet size (default 3; minimum 2 so kills have a
	// target while replica 0 hosts the continual loop).
	Replicas int
	// ClientWorkers is the number of concurrent load generators
	// (default 4).
	ClientWorkers int
	// EventStep is the schedule's draw cadence (default 250ms).
	EventStep time.Duration
	// StateRoot holds the replicas' journals; empty uses a temp dir that
	// is removed on success and kept on failure for the post-mortem.
	StateRoot string
	// Logf receives progress lines (nil discards them).
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Duration <= 0 {
		c.Duration = 10 * time.Second
	}
	if c.Replicas < 2 {
		c.Replicas = 3
	}
	if c.ClientWorkers <= 0 {
		c.ClientWorkers = 4
	}
	if c.EventStep <= 0 {
		c.EventStep = 250 * time.Millisecond
	}
	return c
}

// Run executes one soak: boot, chaos, quiesce, invariant checks. The
// returned Summary is complete even when the run failed; err is non-nil
// iff at least one invariant was violated (the violations are also in
// the summary).
func Run(cfg Config) (*Summary, error) {
	cfg = cfg.withDefaults()
	logf := cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	sum := &Summary{
		Seed:       cfg.Seed,
		Replicas:   cfg.Replicas,
		DurationMs: cfg.Duration.Milliseconds(),
		Requests:   map[string]int64{},
	}
	tracing.SeedIDs(cfg.Seed)

	stateRoot := cfg.StateRoot
	if stateRoot == "" {
		var err error
		stateRoot, err = os.MkdirTemp("", "diagnet-soak-*")
		if err != nil {
			return sum, err
		}
	}

	// --- Boot -----------------------------------------------------------
	logf("soak: training fixture model (seed %d)", cfg.Seed)
	model, testData := trainFixture()

	logf("soak: booting %d replicas + router", cfg.Replicas)
	replicas := make([]*replica, cfg.Replicas)
	urls := make([]string, cfg.Replicas)
	for i := range replicas {
		// The continual loop runs on replica 0 (which the schedule never kills).
		r, err := startReplica(i, replicaOptions(model, filepath.Join(stateRoot, fmt.Sprintf("replica-%d", i)), i == 0, cfg.Seed))
		if err != nil {
			sum.fail("boot: %v", err)
			return sum, errors.New(sum.Violations[0])
		}
		replicas[i] = r
		urls[i] = r.url()
	}

	rt := cluster.NewRouter(urls, cluster.Config{
		HealthInterval: 50 * time.Millisecond,
		Obs:            cluster.ObsConfig{FederateInterval: 100 * time.Millisecond},
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		sum.fail("router listen: %v", err)
		return sum, errors.New(sum.Violations[0])
	}
	routerSrv := &http.Server{Handler: rt}
	go routerSrv.Serve(ln)
	routerURL := "http://" + ln.Addr().String()

	// Pre-fill replica 0's sample store so retrain triggers have material.
	if err := prefillSamples(replicas[0].srv.Continual(), testData); err != nil {
		sum.fail("continual pre-fill: %v", err)
		return sum, errors.New(sum.Violations[0])
	}

	// --- Chaos phase ----------------------------------------------------
	schedule := BuildSchedule(cfg.Seed, cfg.Duration, cfg.Replicas, cfg.EventStep)
	sum.Schedule = schedule
	logf("soak: %d scheduled events over %s", len(schedule), cfg.Duration)

	stopLoad := make(chan struct{})
	var loadWG sync.WaitGroup
	var counts requestCounts
	for w := 0; w < cfg.ClientWorkers; w++ {
		loadWG.Add(1)
		go func(w int) {
			defer loadWG.Done()
			clientLoad(routerURL, testData, stats.NewLockedStream(cfg.Seed, int64(w)+1), &counts, stopLoad)
		}(w)
	}

	stopSample := make(chan struct{})
	var sampleWG sync.WaitGroup
	sampleWG.Add(1)
	go func() {
		defer sampleWG.Done()
		sampleResources(sum, replicas, stopSample)
	}()

	start := time.Now()
	runSchedule(schedule, replicas, routerURL, stateRoot, sum, logf, start)

	// --- Quiesce --------------------------------------------------------
	remaining := cfg.Duration - time.Since(start)
	if remaining > 0 {
		time.Sleep(remaining)
	}
	close(stopLoad)
	loadWG.Wait()
	close(stopSample)
	sampleWG.Wait()
	counts.fill(sum.Requests)

	// The serving-path sample tap is part of the shipped boot: replica 0's
	// share of the load must have reached its controller.
	if seen, err := continualSeen(replicas[0].url()); err != nil {
		sum.fail("continual status: %v", err)
	} else if seen <= int64(len(testData.Samples)) {
		sum.fail("continual tap dead: store_seen %d never rose above the %d pre-filled samples", seen, len(testData.Samples))
	}

	// Federation exactness while the fleet is quiet: one final sweep must
	// equal the sum of the replicas' own registries, counter for counter
	// (the http.* ones: the traffic the schedule drove).
	checkFederation(rt, replicas, sum)

	// --- Teardown (reverse dependency order) ----------------------------
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	routerSrv.Shutdown(shutCtx)
	cancel()
	rt.Close()
	rt.Close() // double-Close must stay a no-op
	for _, r := range replicas {
		if err := r.shutdown(); err != nil {
			sum.fail("replica %d shutdown: %v", r.index, err)
		}
	}

	// --- Final invariants -----------------------------------------------
	sum.checkGrowth()
	if leaked := leakcheck.Find(); leaked != nil {
		sum.LeakReport = leaked.Error()
		sum.fail("goroutine leak after teardown: %s", firstLine(leaked.Error()))
	}
	if n := sum.Requests["5xx"]; n > 0 {
		sum.fail("%d client-visible 5xx responses", n)
	}
	if sum.Requests["ok"] == 0 {
		sum.fail("no successful requests — the load never reached the fleet")
	}
	if len(sum.Violations) == 0 && cfg.StateRoot == "" {
		os.RemoveAll(stateRoot)
	} else if len(sum.Violations) > 0 {
		sum.StateRoot = stateRoot
	}
	if len(sum.Violations) > 0 {
		return sum, fmt.Errorf("soak: %d invariant violation(s): %s", len(sum.Violations), strings.Join(sum.Violations, "; "))
	}
	return sum, nil
}

// trainFixture trains the tiny shared model (same shape as the e2e test
// fixtures — small enough for CI under -race, rich enough for shadow
// evaluation to mean something).
func trainFixture() (*core.Model, *dataset.Dataset) {
	w := netsim.NewWorld(netsim.Config{Seed: 1})
	d := dataset.Generate(dataset.GenConfig{
		World:          w,
		NominalSamples: 150,
		FaultSamples:   400,
		Seed:           21,
	})
	train, test := d.Split(0.8, netsim.HiddenLandmarks(), 23)
	mc := core.DefaultConfig()
	mc.Filters = 4
	mc.Hidden = []int{16, 8}
	mc.Epochs = 2
	mc.Forest = forest.Config{Trees: 5, Tree: forest.TreeConfig{MaxDepth: 4}}
	known := []int{netsim.BEAU, netsim.AMST, netsim.SING, netsim.LOND, netsim.FRNK, netsim.TOKY, netsim.SYDN}
	return core.TrainGeneral(train, known, mc).Model, test
}

// replicaOptions is a soak replica's tuning: the e2e fixtures' small
// batches over a journal-backed state dir, plus — on the continual host —
// the closed learning loop with a permissive gate and fast timers (the
// soak asserts lifecycle, not model quality).
func replicaOptions(model *core.Model, stateDir string, continualHost bool, seed int64) analysis.Options {
	return analysis.Options{
		Bundle:    core.NewBundle(model),
		StateDir:  stateDir,
		Fsync:     durable.FsyncBatch,
		Serving:   serving.Config{BatchMax: 8, QueueDepth: 256},
		Continual: continualHost,
		Store:     continual.StoreConfig{PerStratum: 32, Seed: seed},
		Trainer:   continual.TrainerConfig{Epochs: 1, Seed: seed, SpecializeMin: -1},
		Loop: continual.Config{
			Gate: continual.GateConfig{
				MinShadowSamples: 8, MinGain: -1, MaxPSI: 100, MaxLatencyRatio: 100,
			},
			ShadowTimeout:   2 * time.Second,
			CheckInterval:   20 * time.Millisecond,
			MinSamples:      16,
			WatchWindow:     500 * time.Millisecond,
			WatchWindowSize: 64,
			WatchPSI:        100,
			Seed:            seed,
		},
	}
}

// prefillSamples offers the labeled test set to the loop's sample store.
func prefillSamples(ctrl *continual.Controller, d *dataset.Dataset) error {
	for i := range d.Samples {
		s := &d.Samples[i]
		err := ctrl.Ingest(continual.Sample{
			Service:   s.Service,
			Landmarks: d.Layout.Landmarks,
			Features:  s.Features,
			Family:    int(s.Family),
			Cause:     s.Cause,
			Labeled:   true,
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// continualSeen reads store_seen from a replica's GET /v1/continual.
func continualSeen(replicaURL string) (int64, error) {
	resp, err := http.Get(replicaURL + "/v1/continual")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("GET /v1/continual: %s", resp.Status)
	}
	var st continual.Status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return 0, err
	}
	return st.StoreSeen, nil
}

// requestCounts tallies client-observed outcomes.
type requestCounts struct {
	ok, s4xx, s429, s5xx, transport atomic.Int64
}

func (c *requestCounts) fill(m map[string]int64) {
	m["ok"] = c.ok.Load()
	m["4xx"] = c.s4xx.Load()
	m["429"] = c.s429.Load()
	m["5xx"] = c.s5xx.Load()
	m["transport"] = c.transport.Load()
}

// clientLoad drives diagnose traffic through the router until stopped and
// classifies each outcome. Retries are disabled — the soak wants the raw
// status the fleet actually produced, not one laundered by client-side
// resilience.
func clientLoad(routerURL string, d *dataset.Dataset, rng *stats.LockedRand, counts *requestCounts, stop <-chan struct{}) {
	client := analysis.NewClient(routerURL)
	client.Retry = resilience.RetryPolicy{MaxAttempts: 1}
	defer client.HTTP.CloseIdleConnections()
	deg := d.Degraded()
	if deg.Len() == 0 {
		return
	}
	for {
		select {
		case <-stop:
			return
		default:
		}
		s := &deg.Samples[rng.Intn(deg.Len())]
		req := &analysis.DiagnoseRequest{
			ServiceID: s.Service,
			Landmarks: d.Layout.Landmarks,
			Features:  s.Features,
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err := client.Diagnose(ctx, req)
		cancel()
		switch {
		case err == nil:
			counts.ok.Add(1)
		default:
			var statusErr *resilience.HTTPStatusError
			switch {
			case errors.As(err, &statusErr) && statusErr.Code == http.StatusTooManyRequests:
				counts.s429.Add(1)
			case errors.As(err, &statusErr) && statusErr.Code >= 500:
				counts.s5xx.Add(1)
			case errors.As(err, &statusErr):
				counts.s4xx.Add(1)
			default:
				counts.transport.Add(1)
			}
		}
	}
}

// runSchedule dispatches the scripted events at their offsets.
func runSchedule(schedule []Event, replicas []*replica, routerURL, stateRoot string, sum *Summary, logf func(string, ...any), start time.Time) {
	crashDir := filepath.Join(stateRoot, "crash-scratch")
	crashes := 0
	for _, ev := range schedule {
		if wait := ev.At - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		switch ev.Kind {
		case EvKill:
			logf("soak: %6s  kill replica %d", ev.At.Truncate(time.Millisecond), ev.Target)
			replicas[ev.Target].kill()
		case EvRestart:
			logf("soak: %6s  restart replica %d", ev.At.Truncate(time.Millisecond), ev.Target)
			if err := replicas[ev.Target].restart(); err != nil {
				sum.fail("restart replica %d: %v", ev.Target, err)
			}
		case EvCheckpoint:
			if err := replicas[ev.Target].checkpoint(); err != nil {
				sum.fail("checkpoint replica %d: %v", ev.Target, err)
			} else {
				sum.Checkpoints++
			}
		case EvCrashJournal:
			site := crashSites[crashes%len(crashSites)]
			crashes++
			if err := crashAndRecover(crashDir, durable.CrashPoint(site)); err != nil {
				sum.fail("crash-inject %s: %v", site, err)
			} else {
				sum.CrashInjections++
			}
		case EvRetrain:
			triggerRetrain(replicas[0].url(), sum)
		case EvFleetCheck:
			fleetCheck(routerURL, sum)
			if _, err := continualSeen(replicas[0].url()); err != nil {
				sum.fail("replica 0 mid-run: %v", err)
			}
		}
	}
}

// crashAndRecover arms one crash point, takes the injected crash on a
// scratch journal append, then reopens the directory — the replay must
// succeed and the records must be intact prefixes of what was written.
func crashAndRecover(dir string, site durable.CrashPoint) error {
	jn, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncAlways})
	if err != nil {
		return err
	}
	// A few survivor records, then the doomed one.
	for i := 0; i < 3; i++ {
		if err := jn.Append([]byte(fmt.Sprintf(`{"n":%d}`, i))); err != nil {
			jn.Close()
			return err
		}
	}
	durable.SetCrashPointIn(dir, site) // replica 0 journals a sample per served request: it must not trip the point first
	var crashed bool
	func() {
		defer durable.RecoverCrash(&crashed)
		jn.Append([]byte(`{"n":"doomed"}`))
	}()
	durable.ClearCrashPoint()
	jn.Close()
	if !crashed {
		return fmt.Errorf("crash point %q did not fire", site)
	}
	// Recovery: reopen and replay; every surviving record must decode.
	re, err := durable.Open(dir, durable.Options{Fsync: durable.FsyncAlways})
	if err != nil {
		return fmt.Errorf("reopen after %s: %w", site, err)
	}
	defer re.Close()
	n := 0
	if err := re.Replay(func(payload []byte) error {
		n++
		return nil
	}); err != nil {
		return fmt.Errorf("replay after %s: %w", site, err)
	}
	if n < 3 {
		return fmt.Errorf("replay after %s lost acknowledged records: %d < 3", site, n)
	}
	return nil
}

// triggerRetrain pokes the loop through the route an operator would use.
// 409 (mid-cycle) is expected — the poke is the point; anything else but
// 202 is a violation.
func triggerRetrain(replicaURL string, sum *Summary) {
	resp, err := http.Post(replicaURL+"/v1/continual/retrain", "application/json", strings.NewReader(`{"reason":"soak"}`))
	if err != nil {
		sum.fail("retrain trigger: %v", err)
		return
	}
	resilience.DrainClose(resp.Body, resilience.DrainAll)
	switch resp.StatusCode {
	case http.StatusAccepted:
		sum.Retrains++
	case http.StatusConflict:
	default:
		sum.fail("retrain trigger returned %d", resp.StatusCode)
	}
}

// fleetCheck polls the router's federated view; any 5xx is a violation
// (503 before the first sweep completes is part of the contract).
func fleetCheck(routerURL string, sum *Summary) {
	resp, err := http.Get(routerURL + "/v1/fleet/metrics")
	if err != nil {
		return // router teardown race at the window edge, not an invariant
	}
	resilience.DrainClose(resp.Body, resilience.DrainAll)
	sum.FleetChecks++
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusServiceUnavailable {
		sum.fail("fleet view returned %d", resp.StatusCode)
	}
}

// sampleResources records goroutine and fd counts on a cadence for the
// growth invariant (Summary.checkGrowth).
func sampleResources(sum *Summary, replicas []*replica, stop <-chan struct{}) {
	t := time.NewTicker(200 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			whole := true
			for _, r := range replicas {
				whole = whole && r.up.Load()
			}
			sum.sample(whole, len(leakcheck.Interesting()), leakcheck.CountFDs())
		}
	}
}

// checkFederation asserts the exactness invariant: after quiesce, every
// http.* counter in the federated fleet view equals the sum of the same
// counter — same name, no mapping — across the replicas' own registries.
func checkFederation(rt *cluster.Router, replicas []*replica, sum *Summary) {
	fed := rt.Federator()
	if fed == nil {
		sum.fail("federation disabled — harness bug")
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	view := fed.Sweep(ctx)
	cancel()
	for _, rm := range view.Replicas {
		if rm.Error != "" {
			sum.fail("final sweep: replica %s: %s", rm.Name, rm.Error)
			return
		}
	}
	want := map[string]int64{}
	for _, r := range replicas {
		for _, c := range r.reg.Export().Counters {
			want[c.Name] += c.Value
		}
	}
	checked := 0
	for i := range view.Fleet.Counters {
		name := view.Fleet.Counters[i].Name
		if !strings.HasPrefix(name, "http.") {
			continue
		}
		if got := view.Fleet.Counters[i].Value; got != want[name] {
			sum.fail("federation inexact: %s fleet=%d sum(replicas)=%d", name, got, want[name])
		}
		checked++
	}
	if checked == 0 {
		sum.fail("federation exactness checked zero counters")
	}
	sum.FederatedCounters = checked
}

// firstLine truncates a multi-line report to its head for the violation
// list (the full report is in Summary.LeakReport).
func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

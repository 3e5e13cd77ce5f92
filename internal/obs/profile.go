package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"diagnet/internal/telemetry"
)

// ProfilerConfig configures the anomaly-triggered profile capturer.
type ProfilerConfig struct {
	// Dir is the on-disk ring directory (e.g. <state-dir>/profiles).
	Dir string
	// Cooldown rate-limits captures: a sustained incident costs at most
	// one CPU+heap pair per cooldown (default 10m).
	Cooldown time.Duration
	// CPUDuration bounds the CPU profile (default 5s).
	CPUDuration time.Duration
	// MaxCaptures bounds the ring; the oldest pair is deleted to admit a
	// new one (default 8).
	MaxCaptures int
	// Registry receives the profiler's own metrics (default telemetry.Default()).
	Registry *telemetry.Registry
}

// Capture is one CPU+heap profile pair in the ring.
type Capture struct {
	ID          string `json:"id"` // timestamped directory name
	Reason      string `json:"reason"`
	AtUnixMs    int64  `json:"at_unix_ms"`
	CPUProfile  string `json:"cpu_profile"` // file name inside the capture dir
	HeapProfile string `json:"heap_profile"`
}

// Profiler captures bounded CPU+heap pprof pairs into an on-disk ring
// when the observability plane detects an anomaly (burn-rate alert
// firing, p99 breach). Trigger is asynchronous and rate-limited; List and
// the HTTP handlers expose the ring.
type Profiler struct {
	cfg ProfilerConfig

	captures  *telemetry.Counter
	suppress  *telemetry.Counter
	capturing atomic.Bool
	last      atomic.Int64 // unix nanos of last capture start

	// closed gates Trigger; stop interrupts an in-flight capture's CPU
	// window; wg awaits the capture goroutine so Close never strands it.
	closed    atomic.Bool
	stop      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup

	mu sync.Mutex // serializes ring mutation
}

// OpenProfiler builds a profiler rooted at cfg.Dir, creating it.
func OpenProfiler(cfg ProfilerConfig) (*Profiler, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("obs: profiler needs a directory")
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 10 * time.Minute
	}
	if cfg.CPUDuration <= 0 {
		cfg.CPUDuration = 5 * time.Second
	}
	if cfg.MaxCaptures <= 0 {
		cfg.MaxCaptures = 8
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("obs: profile dir: %w", err)
	}
	reg := cfg.Registry
	if reg == nil {
		reg = telemetry.Default()
	}
	return &Profiler{
		cfg:      cfg,
		captures: reg.Counter("obs.profiles.captured"),
		suppress: reg.Counter("obs.profiles.suppressed"),
		stop:     make(chan struct{}),
	}, nil
}

// Close stops the profiler: new triggers are refused and any in-flight
// capture is interrupted (its CPU window is cut short, the pair is still
// written) and awaited. Idempotent.
func (p *Profiler) Close() {
	p.closeOnce.Do(func() {
		p.closed.Store(true)
		close(p.stop)
	})
	p.wg.Wait()
}

// Trigger requests a capture for the given reason. It returns immediately:
// the capture runs on its own goroutine (the CPU profile takes
// CPUDuration). Returns true if a capture was started, false if it was
// suppressed by the cooldown or an in-flight capture.
func (p *Profiler) Trigger(reason string) bool {
	if p.closed.Load() {
		p.suppress.Inc()
		return false
	}
	now := time.Now()
	last := p.last.Load()
	if last != 0 && now.Sub(time.Unix(0, last)) < p.cfg.Cooldown {
		p.suppress.Inc()
		return false
	}
	if !p.last.CompareAndSwap(last, now.UnixNano()) {
		p.suppress.Inc() // lost the race to a concurrent trigger
		return false
	}
	if !p.capturing.CompareAndSwap(false, true) {
		p.suppress.Inc()
		return false
	}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		defer p.capturing.Store(false)
		p.capture(now, reason)
	}()
	return true
}

// capture writes one CPU+heap pair and prunes the ring.
func (p *Profiler) capture(now time.Time, reason string) {
	id := now.UTC().Format("20060102T150405.000") + "_" + sanitizeReason(reason)
	dir := filepath.Join(p.cfg.Dir, id)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return
	}
	meta := Capture{
		ID:          id,
		Reason:      reason,
		AtUnixMs:    now.UnixMilli(),
		CPUProfile:  "cpu.pprof",
		HeapProfile: "heap.pprof",
	}

	if f, err := os.Create(filepath.Join(dir, meta.CPUProfile)); err == nil {
		if err := pprof.StartCPUProfile(f); err == nil {
			// Interruptible CPU window: Close must not wait out a 5s sleep.
			t := time.NewTimer(p.cfg.CPUDuration)
			select {
			case <-t.C:
			case <-p.stop:
				t.Stop()
			}
			pprof.StopCPUProfile()
		}
		f.Close()
	}
	if f, err := os.Create(filepath.Join(dir, meta.HeapProfile)); err == nil {
		_ = pprof.Lookup("heap").WriteTo(f, 0)
		f.Close()
	}
	if b, err := json.MarshalIndent(meta, "", "  "); err == nil {
		_ = os.WriteFile(filepath.Join(dir, "capture.json"), b, 0o644)
	}
	p.captures.Inc()
	p.pruneRing()
}

// sanitizeReason makes a reason safe for a directory name.
func sanitizeReason(reason string) string {
	var b strings.Builder
	for _, r := range reason {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('-')
		}
		if b.Len() >= 48 {
			break
		}
	}
	if b.Len() == 0 {
		return "anomaly"
	}
	return b.String()
}

// pruneRing deletes the oldest captures beyond MaxCaptures.
func (p *Profiler) pruneRing() {
	p.mu.Lock()
	defer p.mu.Unlock()
	ids := p.ids()
	for len(ids) > p.cfg.MaxCaptures {
		_ = os.RemoveAll(filepath.Join(p.cfg.Dir, ids[0]))
		ids = ids[1:]
	}
}

// ids lists capture directory names, oldest first (the timestamped names
// sort chronologically).
func (p *Profiler) ids() []string {
	entries, err := os.ReadDir(p.cfg.Dir)
	if err != nil {
		return nil
	}
	var ids []string
	for _, e := range entries {
		if e.IsDir() {
			ids = append(ids, e.Name())
		}
	}
	sort.Strings(ids)
	return ids
}

// List returns the ring's captures, newest first.
func (p *Profiler) List() []Capture {
	p.mu.Lock()
	ids := p.ids()
	p.mu.Unlock()
	out := make([]Capture, 0, len(ids))
	for i := len(ids) - 1; i >= 0; i-- {
		var c Capture
		b, err := os.ReadFile(filepath.Join(p.cfg.Dir, ids[i], "capture.json"))
		if err != nil || json.Unmarshal(b, &c) != nil {
			// A capture still in flight has no metadata yet; list the
			// directory so the operator sees it exists.
			c = Capture{ID: ids[i], Reason: "(in progress)"}
		}
		out = append(out, c)
	}
	return out
}

// ServeHTTP serves the capture ring under a /v1/profiles prefix:
//
//	GET /v1/profiles                  — JSON list, newest first
//	GET /v1/profiles/{id}/{file}      — download one profile file
func (p *Profiler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/profiles")
	rest = strings.Trim(rest, "/")
	if rest == "" {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(struct {
			Captures []Capture `json:"captures"`
		}{p.List()})
		return
	}
	id, file, ok := strings.Cut(rest, "/")
	if !ok || strings.Contains(id, "..") || strings.Contains(file, "/") || strings.Contains(file, "..") {
		http.Error(w, "bad profile path", http.StatusBadRequest)
		return
	}
	path := filepath.Join(p.cfg.Dir, id, file)
	f, err := os.Open(path)
	if err != nil {
		http.Error(w, "not found", http.StatusNotFound)
		return
	}
	defer f.Close()
	if strings.HasSuffix(file, ".json") {
		w.Header().Set("Content-Type", "application/json")
	} else {
		w.Header().Set("Content-Type", "application/octet-stream")
	}
	http.ServeContent(w, r, file, time.Time{}, f)
}

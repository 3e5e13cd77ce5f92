package landmark

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"time"

	"diagnet/internal/resilience"
	"diagnet/internal/tcpinfo"
)

// Measurement is what one probe of one landmark yields: the live
// counterpart of the simulator's per-landmark metric vector.
type Measurement struct {
	RTTMs    float64 // median of the ping round trips
	JitterMs float64 // spread (p90−p10) of the ping round trips
	DownMbps float64
	UpMbps   float64
	Stats    Stats // landmark-side counters at probe time
	// LossProxy is the retransmitted-segment ratio of the probe's own TCP
	// connection, read via getsockopt(TCP_INFO) where the platform allows
	// (the paper's loss metric, §IV-A-b); -1 when unavailable.
	LossProxy float64
	// KernelRTTMs is the kernel's smoothed RTT estimate for the probing
	// connection; 0 when unavailable.
	KernelRTTMs float64
}

// ProberConfig tunes the probing cost.
type ProberConfig struct {
	Pings         int   // RTT samples; default 7
	DownloadBytes int64 // default 2 MiB
	UploadBytes   int64 // default 1 MiB
	Timeout       time.Duration
}

func (c ProberConfig) withDefaults() ProberConfig {
	if c.Pings <= 0 {
		c.Pings = 7
	}
	if c.DownloadBytes <= 0 {
		c.DownloadBytes = 2 << 20
	}
	if c.UploadBytes <= 0 {
		c.UploadBytes = 1 << 20
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	return c
}

// Prober measures landmarks over HTTP, reusing connections so that RTT
// pings after the first approximate a single round trip (the paper used a
// WebSocket upgrade for the same reason). On platforms exposing TCP_INFO,
// the prober also reads its own connections' kernel statistics for the
// retransmission (loss) metric.
type Prober struct {
	Client *http.Client
	Config ProberConfig

	conns *connTracker
}

// connTracker remembers the most recent TCP connection dialed per remote
// address so the prober can query its kernel statistics.
type connTracker struct {
	mu    sync.Mutex
	conns map[string]net.Conn
}

func (ct *connTracker) dial(ctx context.Context, network, addr string) (net.Conn, error) {
	var d net.Dialer
	conn, err := d.DialContext(ctx, network, addr)
	if err != nil {
		return nil, err
	}
	ct.mu.Lock()
	ct.conns[addr] = conn
	ct.mu.Unlock()
	return conn, nil
}

func (ct *connTracker) lookup(addr string) net.Conn {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.conns[addr]
}

// NewProber returns a prober with keep-alive transport and defaults.
func NewProber(cfg ProberConfig) *Prober {
	ct := &connTracker{conns: map[string]net.Conn{}}
	return &Prober{
		Client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			DialContext:         ct.dial,
		}},
		Config: cfg.withDefaults(),
		conns:  ct,
	}
}

// Probe measures the landmark at baseURL (e.g. "http://host:port").
func (p *Prober) Probe(ctx context.Context, baseURL string) (Measurement, error) {
	cfg := p.Config.withDefaults()
	ctx, cancel := context.WithTimeout(ctx, cfg.Timeout)
	defer cancel()
	var m Measurement

	// Warm the connection (DNS/TCP), then time pings.
	if err := p.ping(ctx, baseURL); err != nil {
		return m, fmt.Errorf("landmark: warm-up: %w", err)
	}
	rtts := make([]float64, 0, cfg.Pings)
	for i := 0; i < cfg.Pings; i++ {
		start := time.Now()
		if err := p.ping(ctx, baseURL); err != nil {
			return m, fmt.Errorf("landmark: ping %d: %w", i, err)
		}
		rtts = append(rtts, float64(time.Since(start).Microseconds())/1000)
	}
	sort.Float64s(rtts)
	m.RTTMs = rtts[len(rtts)/2]
	m.JitterMs = rtts[len(rtts)*9/10] - rtts[len(rtts)/10]

	// Download throughput.
	start := time.Now()
	n, err := p.download(ctx, baseURL, cfg.DownloadBytes)
	if err != nil {
		return m, fmt.Errorf("landmark: download: %w", err)
	}
	m.DownMbps = mbps(n, time.Since(start))

	// Upload throughput.
	start = time.Now()
	if err := p.upload(ctx, baseURL, cfg.UploadBytes); err != nil {
		return m, fmt.Errorf("landmark: upload: %w", err)
	}
	m.UpMbps = mbps(cfg.UploadBytes, time.Since(start))

	// Landmark-side stats.
	stats, err := p.stats(ctx, baseURL)
	if err != nil {
		return m, fmt.Errorf("landmark: stats: %w", err)
	}
	m.Stats = stats

	// Kernel-level TCP statistics of our own probing connection
	// (best effort: absent off Linux or when the transport re-dialed).
	m.LossProxy = -1
	if host := hostOf(baseURL); host != "" {
		if conn := p.conns.lookup(host); conn != nil {
			if info, err := tcpinfo.Get(conn); err == nil {
				m.KernelRTTMs = float64(info.RTTUs) / 1000
				mss := int64(info.SndMSS)
				if mss == 0 {
					mss = 1448
				}
				segsEstimate := (cfg.DownloadBytes + cfg.UploadBytes) / mss
				if segsEstimate > 0 {
					m.LossProxy = float64(info.TotalRetrans) / float64(segsEstimate)
				}
			}
		}
	}
	return m, nil
}

// hostOf extracts host:port from a landmark base URL.
func hostOf(baseURL string) string {
	u, err := url.Parse(baseURL)
	if err != nil {
		return ""
	}
	host := u.Host
	if u.Port() == "" {
		switch u.Scheme {
		case "https":
			host += ":443"
		default:
			host += ":80"
		}
	}
	return host
}

func mbps(bytes int64, d time.Duration) float64 {
	secs := d.Seconds()
	if secs <= 0 {
		secs = 1e-9
	}
	return float64(bytes) * 8 / 1e6 / secs
}

func (p *Prober) ping(ctx context.Context, base string) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/ping", nil)
	if err != nil {
		return err
	}
	resp, err := p.Client.Do(req)
	if err != nil {
		return err
	}
	resilience.DrainClose(resp.Body, resilience.DrainAll)
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("ping: %w", &resilience.HTTPStatusError{Code: resp.StatusCode})
	}
	return nil
}

func (p *Prober) download(ctx context.Context, base string, n int64) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, fmt.Sprintf("%s/download?bytes=%d", base, n), nil)
	if err != nil {
		return 0, err
	}
	resp, err := p.Client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("download: %w", &resilience.HTTPStatusError{Code: resp.StatusCode})
	}
	got, err := io.Copy(io.Discard, resp.Body)
	if err != nil {
		return got, err
	}
	if got != n {
		return got, fmt.Errorf("download returned %d bytes, want %d: %w", got, n, io.ErrUnexpectedEOF)
	}
	return got, nil
}

// uploadPattern is the shared chunk the streaming upload body copies
// from; one page-sized buffer serves every probe instead of materializing
// the full 1 MiB+ payload per landmark per round.
var uploadPattern = func() []byte {
	b := make([]byte, 32<<10)
	for i := range b {
		b[i] = 0xA5
	}
	return b
}()

// repeatReader streams n pattern bytes without allocating them.
type repeatReader struct{ remaining int64 }

func (r *repeatReader) Read(p []byte) (int, error) {
	if r.remaining <= 0 {
		return 0, io.EOF
	}
	n := 0
	for n < len(p) && r.remaining > 0 {
		c := copy(p[n:], uploadPattern)
		if int64(c) > r.remaining {
			c = int(r.remaining)
		}
		n += c
		r.remaining -= int64(c)
	}
	return n, nil
}

func (p *Prober) upload(ctx context.Context, base string, n int64) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/upload", &repeatReader{remaining: n})
	if err != nil {
		return err
	}
	// An explicit length (plus GetBody for transparent transport retries)
	// keeps the request un-chunked, like the bytes.Reader it replaces.
	req.ContentLength = n
	req.GetBody = func() (io.ReadCloser, error) {
		return io.NopCloser(&repeatReader{remaining: n}), nil
	}
	resp, err := p.Client.Do(req)
	if err != nil {
		return err
	}
	resilience.DrainClose(resp.Body, resilience.DrainAll)
	if resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("upload: %w", &resilience.HTTPStatusError{Code: resp.StatusCode})
	}
	return nil
}

func (p *Prober) stats(ctx context.Context, base string) (Stats, error) {
	var s Stats
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/stats", nil)
	if err != nil {
		return s, err
	}
	resp, err := p.Client.Do(req)
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("stats: %w", &resilience.HTTPStatusError{Code: resp.StatusCode})
	}
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		return s, err
	}
	return s, nil
}

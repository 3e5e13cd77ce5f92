package landmark

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"diagnet/internal/tcpinfo"
)

func newTestLandmark(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	s := &Server{}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestPingEndpoint(t *testing.T) {
	s, ts := newTestLandmark(t)
	resp, err := http.Get(ts.URL + "/ping")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if s.Stats().Pings != 1 {
		t.Fatalf("ping counter %d", s.Stats().Pings)
	}
}

func TestDownloadExactBytes(t *testing.T) {
	s, ts := newTestLandmark(t)
	resp, err := http.Get(ts.URL + "/download?bytes=12345")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	n, _ := io.Copy(io.Discard, resp.Body)
	if n != 12345 {
		t.Fatalf("got %d bytes", n)
	}
	// The handler counts the bytes after it has written them, so the client
	// can finish reading a moment before the counter moves.
	for deadline := time.Now().Add(2 * time.Second); s.Stats().BytesServed != 12345 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if s.Stats().BytesServed != 12345 || s.Stats().Downloads != 1 {
		t.Fatalf("stats %+v", s.Stats())
	}
}

func TestDownloadRejectsBadRequests(t *testing.T) {
	_, ts := newTestLandmark(t)
	for _, q := range []string{"bytes=-1", "bytes=abc", "bytes=0", fmt.Sprintf("bytes=%d", int64(maxDownloadBytes)+1)} {
		resp, err := http.Get(ts.URL + "/download?" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func TestDownloadPayloadIncompressible(t *testing.T) {
	_, ts := newTestLandmark(t)
	resp, err := http.Get(ts.URL + "/download?bytes=4096")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	// A constant payload would have one distinct byte; random data has many.
	distinct := map[byte]bool{}
	for _, b := range body {
		distinct[b] = true
	}
	if len(distinct) < 64 {
		t.Fatalf("payload too uniform: %d distinct bytes", len(distinct))
	}
}

func TestUploadCountsBytes(t *testing.T) {
	s, ts := newTestLandmark(t)
	resp, err := http.Post(ts.URL+"/upload", "application/octet-stream", strings.NewReader(strings.Repeat("x", 5000)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if s.Stats().BytesReceived != 5000 {
		t.Fatalf("received %d", s.Stats().BytesReceived)
	}
	// GET on upload is rejected.
	resp, _ = http.Get(ts.URL + "/upload")
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET upload status %d", resp.StatusCode)
	}
}

func TestStatsEndpointJSON(t *testing.T) {
	_, ts := newTestLandmark(t)
	http.Get(ts.URL + "/ping")
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s Stats
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	if s.Pings != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestServerConcurrentSafety(t *testing.T) {
	s, ts := newTestLandmark(t)
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/ping")
			if err == nil {
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	if s.Stats().Pings != 20 {
		t.Fatalf("pings %d", s.Stats().Pings)
	}
}

func TestSaturationSheddingLoad(t *testing.T) {
	s := &Server{MaxConcurrentTransfers: 1}
	gate := make(chan struct{})
	heldReturned := make(chan struct{})
	// Wrap the handler so we can hold one download open, and see its
	// handler return.
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("hold") == "1" {
			<-gate
			defer close(heldReturned)
		}
		s.Handler().ServeHTTP(w, r)
	})
	ts := httptest.NewServer(slow)
	defer ts.Close()

	// Start a download that blocks inside the slot.
	started := make(chan struct{})
	bgDone := make(chan struct{})
	go func() {
		close(started)
		defer close(bgDone)
		resp, err := http.Get(ts.URL + "/download?bytes=1048576&hold=1")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
	}()
	<-started
	// The hold happens before the semaphore, so instead drive saturation
	// directly through acquire.
	release, ok := s.acquire()
	if !ok {
		t.Fatal("first slot should acquire")
	}
	if _, ok := s.acquire(); ok {
		t.Fatal("second slot must be rejected")
	}
	// A saturated server answers 503 on transfers but still pings.
	resp, err := http.Get(ts.URL + "/download?bytes=100")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated download status %d", resp.StatusCode)
	}
	resp, _ = http.Get(ts.URL + "/ping")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatal("ping must survive saturation")
	}
	release()
	close(gate)
	// Let the held background download drain its slot before checking
	// that transfers flow again (it may legitimately grab it first). The
	// client reading the last byte is not that: the handler's deferred
	// release runs after its last write, so wait for the handler itself.
	<-bgDone
	select {
	case <-heldReturned:
	case <-time.After(10 * time.Second):
		t.Fatal("the held download's handler never returned")
	}
	// After release, transfers flow again.
	resp, err = http.Get(ts.URL + "/download?bytes=100")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release download status %d", resp.StatusCode)
	}
	if s.Stats().Rejected == 0 {
		t.Fatal("rejections not counted")
	}
}

func TestProbeEndToEnd(t *testing.T) {
	_, ts := newTestLandmark(t)
	p := NewProber(ProberConfig{Pings: 5, DownloadBytes: 256 << 10, UploadBytes: 128 << 10})
	m, err := p.Probe(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if m.RTTMs <= 0 {
		t.Fatalf("RTT %v", m.RTTMs)
	}
	if m.JitterMs < 0 {
		t.Fatalf("jitter %v", m.JitterMs)
	}
	if m.DownMbps <= 0 || m.UpMbps <= 0 {
		t.Fatalf("throughput %v/%v", m.DownMbps, m.UpMbps)
	}
	if m.Stats.Downloads != 1 || m.Stats.Uploads != 1 {
		t.Fatalf("landmark stats %+v", m.Stats)
	}
	// Loopback RTT must be far below WAN latencies.
	if m.RTTMs > 100 {
		t.Fatalf("loopback RTT %v ms implausible", m.RTTMs)
	}
}

func TestProbeKernelTCPInfo(t *testing.T) {
	if !tcpinfo.Supported() {
		t.Skip("TCP_INFO unsupported")
	}
	_, ts := newTestLandmark(t)
	p := NewProber(ProberConfig{Pings: 3, DownloadBytes: 512 << 10, UploadBytes: 256 << 10})
	m, err := p.Probe(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	if m.LossProxy < 0 {
		t.Fatal("loss proxy unavailable despite TCP_INFO support")
	}
	// Loopback: no retransmissions.
	if m.LossProxy != 0 {
		t.Fatalf("loopback loss proxy %v", m.LossProxy)
	}
	if m.KernelRTTMs <= 0 || m.KernelRTTMs > 100 {
		t.Fatalf("kernel RTT %v ms implausible for loopback", m.KernelRTTMs)
	}
}

func TestProbeTimeout(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(200 * time.Millisecond)
		w.WriteHeader(http.StatusNoContent)
	}))
	defer slow.Close()
	p := NewProber(ProberConfig{Timeout: 50 * time.Millisecond})
	if _, err := p.Probe(context.Background(), slow.URL); err == nil {
		t.Fatal("want timeout error")
	}
}

func TestProbeBadLandmark(t *testing.T) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "nope", http.StatusInternalServerError)
	}))
	defer broken.Close()
	p := NewProber(ProberConfig{})
	if _, err := p.Probe(context.Background(), broken.URL); err == nil {
		t.Fatal("want error from broken landmark")
	}
}

func TestProberConfigDefaults(t *testing.T) {
	cfg := ProberConfig{}.withDefaults()
	if cfg.Pings != 7 || cfg.DownloadBytes != 2<<20 || cfg.UploadBytes != 1<<20 || cfg.Timeout <= 0 {
		t.Fatalf("defaults %+v", cfg)
	}
}

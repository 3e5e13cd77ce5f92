// Package landmark implements the paper's measurement plane as real
// network code: the stateless public HTTP landmark service (§III-A) with
// ping, download, upload and stats endpoints, and the client-side prober
// that derives the per-landmark metrics from timed requests (§IV-A-b).
//
// The paper's prototype measured RTT over an upgraded WebSocket to dodge
// per-request HTTP overhead and pulled raw TCP statistics via the
// getsockopt syscall. This implementation measures RTT over a kept-alive
// HTTP connection (one small request ≈ one round trip after warm-up), and
// on Linux the prober reads its own connection's kernel TCP statistics
// (internal/tcpinfo) for the retransmission/loss metric, exactly the
// paper's mechanism. The simulator still drives the experiments, since a
// loopback cannot exhibit WAN pathologies (see DESIGN.md §2).
package landmark

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
)

// Maximum payload a download request may ask for (64 MiB).
const maxDownloadBytes = 64 << 20

// Stats is the landmark's public counter snapshot.
type Stats struct {
	Pings         int64 `json:"pings"`
	Downloads     int64 `json:"downloads"`
	Uploads       int64 `json:"uploads"`
	Rejected      int64 `json:"rejected"`
	BytesServed   int64 `json:"bytes_served"`
	BytesReceived int64 `json:"bytes_received"`
}

// Server is a stateless landmark HTTP service. The zero value is ready;
// use Handler to mount it.
//
// MaxConcurrentTransfers, when positive, caps simultaneous download/upload
// requests; excess requests get 503 (landmarks under "saturated capacity"
// should shed load visibly rather than skew everyone's throughput
// measurements — clients simply probe another landmark, which the
// extensible model tolerates by design).
type Server struct {
	MaxConcurrentTransfers int

	pings         atomic.Int64
	downloads     atomic.Int64
	uploads       atomic.Int64
	rejected      atomic.Int64
	bytesServed   atomic.Int64
	bytesReceived atomic.Int64

	semOnce sync.Once
	sem     chan struct{}
}

// acquire reserves a transfer slot; it reports false when saturated.
func (s *Server) acquire() (release func(), ok bool) {
	if s.MaxConcurrentTransfers <= 0 {
		return func() {}, true
	}
	s.semOnce.Do(func() { s.sem = make(chan struct{}, s.MaxConcurrentTransfers) })
	select {
	case s.sem <- struct{}{}:
		return func() { <-s.sem }, true
	default:
		s.rejected.Add(1)
		return nil, false
	}
}

// Handler returns the landmark's HTTP handler:
//
//	GET  /ping            → 204, no body (RTT probes)
//	GET  /download?bytes=N → N pseudo-random bytes (download throughput)
//	POST /upload          → drains the body, 204 (upload throughput)
//	GET  /stats           → JSON counters
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ping", s.handlePing)
	mux.HandleFunc("/download", s.handleDownload)
	mux.HandleFunc("POST /upload", s.handleUpload)
	mux.HandleFunc("/stats", s.handleStats)
	return mux
}

func (s *Server) handlePing(w http.ResponseWriter, r *http.Request) {
	s.pings.Add(1)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleDownload(w http.ResponseWriter, r *http.Request) {
	n := int64(1 << 20)
	if q := r.URL.Query().Get("bytes"); q != "" {
		parsed, err := strconv.ParseInt(q, 10, 64)
		if err != nil || parsed <= 0 {
			http.Error(w, "bytes must be a positive integer", http.StatusBadRequest)
			return
		}
		n = parsed
	}
	if n > maxDownloadBytes {
		http.Error(w, fmt.Sprintf("bytes capped at %d", maxDownloadBytes), http.StatusBadRequest)
		return
	}
	release, ok := s.acquire()
	if !ok {
		http.Error(w, "landmark saturated", http.StatusServiceUnavailable)
		return
	}
	defer release()
	s.downloads.Add(1)
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	w.Header().Set("Content-Type", "application/octet-stream")
	// Incompressible pseudo-random payload so middleboxes cannot shrink it.
	rng := rand.New(rand.NewSource(n))
	buf := make([]byte, 32<<10)
	var sent int64
	for sent < n {
		chunk := int64(len(buf))
		if n-sent < chunk {
			chunk = n - sent
		}
		rng.Read(buf[:chunk])
		m, err := w.Write(buf[:chunk])
		sent += int64(m)
		if err != nil {
			break
		}
	}
	s.bytesServed.Add(sent)
}

func (s *Server) handleUpload(w http.ResponseWriter, r *http.Request) {
	release, ok := s.acquire()
	if !ok {
		http.Error(w, "landmark saturated", http.StatusServiceUnavailable)
		return
	}
	defer release()
	n, _ := io.Copy(io.Discard, r.Body)
	s.uploads.Add(1)
	s.bytesReceived.Add(n)
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(s.Stats())
}

// Stats returns a consistent snapshot of the counters.
func (s *Server) Stats() Stats {
	return Stats{
		Pings:         s.pings.Load(),
		Downloads:     s.downloads.Load(),
		Uploads:       s.uploads.Load(),
		Rejected:      s.rejected.Load(),
		BytesServed:   s.bytesServed.Load(),
		BytesReceived: s.bytesReceived.Load(),
	}
}

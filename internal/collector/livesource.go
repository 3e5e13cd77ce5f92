package collector

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"diagnet/internal/landmark"
)

// LiveSource is one client's live probing round: a landmark.MultiProber
// round over its landmarks, then one timed fetch of the watched service,
// both under the prober's round deadline. A round that loses landmarks
// answers from the surviving subset (the model accepts any landmark list,
// §IV-B-a); it fails only when fewer than MinLandmarks answered.
type LiveSource struct {
	Prober *landmark.MultiProber
	// URLs are the landmark base URLs; Regions maps each to its region
	// index in the model's world, in the same order.
	URLs    []string
	Regions []int
	// ServiceURL is the page whose load time is the QoE signal.
	ServiceURL   string
	MinLandmarks int
}

// Round implements Source.
func (s *LiveSource) Round(ctx context.Context, _ int64) (Round, error) {
	ctx, cancel := context.WithTimeout(ctx, s.Prober.RoundTimeout())
	defer cancel()
	results, _ := s.Prober.ProbeAll(ctx, s.URLs)
	var r Round
	var ms []landmark.Measurement
	for i, res := range results {
		if res.OK() {
			ms = append(ms, res.Measurement)
			r.Landmarks = append(r.Landmarks, s.Regions[i])
		} else {
			r.Lost = append(r.Lost, s.URLs[i])
		}
	}
	if len(ms) < s.MinLandmarks {
		return Round{}, fmt.Errorf("only %d/%d landmarks answered (min %d); skipping round",
			len(ms), len(s.URLs), s.MinLandmarks)
	}
	r.Features = landmark.Features(ms, nil, landmark.LocalMetrics{})
	var err error
	if r.LoadMs, err = timePageLoad(ctx, s.ServiceURL); err != nil {
		return Round{}, fmt.Errorf("page load: %w", err)
	}
	return r, nil
}

// timePageLoad fetches a URL and returns the wall-clock duration in ms.
func timePageLoad(ctx context.Context, url string) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	if resp.StatusCode >= 400 {
		return 0, fmt.Errorf("status %d", resp.StatusCode)
	}
	return float64(time.Since(start).Microseconds()) / 1000, nil
}

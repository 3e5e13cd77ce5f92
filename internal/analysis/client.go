package analysis

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"diagnet/internal/resilience"
	"diagnet/internal/tracing"
)

// maxErrorBody bounds how much of an error response body a client error
// message carries.
const maxErrorBody = 4 << 10

// Client talks to a remote analysis service. Transient failures (network
// errors, 5xx) are retried with capped exponential backoff; terminal ones
// (4xx) surface immediately with the server's error text attached.
type Client struct {
	BaseURL string
	HTTP    *http.Client
	// Retry governs transient-failure handling; the zero value retries
	// twice with the resilience defaults. Set MaxAttempts to 1 to disable.
	Retry resilience.RetryPolicy
}

// NewClient returns a client for the service at baseURL.
func NewClient(baseURL string) *Client {
	return &Client{
		BaseURL: baseURL,
		HTTP:    &http.Client{Timeout: 30 * time.Second},
		Retry: resilience.RetryPolicy{
			MaxAttempts: 3,
			BaseDelay:   200 * time.Millisecond,
			MaxDelay:    2 * time.Second,
		},
	}
}

// do issues one JSON round trip with retries; payload may be nil for GET.
// On 2xx the body is decoded into out and drained so the keep-alive
// connection returns to the pool.
func (c *Client) do(ctx context.Context, method, path string, payload, out any) error {
	var body []byte
	if payload != nil {
		var err error
		if body, err = json.Marshal(payload); err != nil {
			return err
		}
	}
	return c.Retry.Do(ctx, func(ctx context.Context) error {
		var reader io.Reader
		if body != nil {
			reader = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.BaseURL+path, reader)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", "application/json")
		}
		// Propagate the caller's trace (W3C traceparent) so the server's
		// route span joins it; retried attempts re-inject the same parent.
		tracing.Inject(ctx, req.Header)
		resp, err := c.HTTP.Do(req)
		if err != nil {
			return err
		}
		// Whatever the decoder leaves is drained, so the transport can
		// reuse the connection instead of tearing it down.
		defer resilience.DrainClose(resp.Body, resilience.DrainAll)
		if resp.StatusCode != http.StatusOK {
			// The server's error text is the diagnosis: keep a bounded
			// excerpt instead of discarding it. A Retry-After header (the
			// server's shed-and-come-back advice on 429, set since the
			// admission-control work) rides along so the retry loop sleeps
			// the advertised delay instead of its generic backoff.
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
			return fmt.Errorf("analysis: %s %s: %w", method, path,
				&resilience.HTTPStatusError{
					Code:       resp.StatusCode,
					Msg:        strings.TrimSpace(string(msg)),
					RetryAfter: ParseRetryAfter(resp.Header),
				})
		}
		return json.NewDecoder(resp.Body).Decode(out)
	})
}

// ParseRetryAfter reads a Retry-After header as whole seconds (the only
// form this service emits; HTTP-date values are ignored). Absent,
// malformed or non-positive values yield zero — "no advice".
func ParseRetryAfter(h http.Header) time.Duration {
	v := strings.TrimSpace(h.Get("Retry-After"))
	if v == "" {
		return 0
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs <= 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

// Diagnose submits a measurement vector and returns the ranked causes.
func (c *Client) Diagnose(ctx context.Context, req *DiagnoseRequest) (*DiagnoseResponse, error) {
	var out DiagnoseResponse
	if err := c.do(ctx, http.MethodPost, "/v1/diagnose", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DiagnoseBatch submits several requests at once.
func (c *Client) DiagnoseBatch(ctx context.Context, reqs []DiagnoseRequest) (*BatchResponse, error) {
	var out BatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/diagnose-batch", BatchRequest{Requests: reqs}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Model fetches the service's model description.
func (c *Client) Model(ctx context.Context) (*ModelInfo, error) {
	var info ModelInfo
	if err := c.do(ctx, http.MethodGet, "/v1/model", nil, &info); err != nil {
		return nil, err
	}
	return &info, nil
}

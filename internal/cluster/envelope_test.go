package cluster

import (
	"encoding/json"
	"io"
)

// The batch envelopes of /v1/diagnose-batch as encoding/json reads them,
// every element left as the bytes it arrived in. The router scans instead
// of decoding (scanBatch, scanReply); these are the oracle its fuzz target
// holds the scan to, and what the fake replicas speak.
type (
	batchRequest struct {
		Requests []json.RawMessage `json:"requests"`
	}
	batchResponse struct {
		Responses []json.RawMessage `json:"responses"`
		Errors    []string          `json:"errors"`
	}
)

// encodeRaw writes v as JSON without HTML escaping, which would rewrite
// the strings inside a RawMessage element.
func encodeRaw(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

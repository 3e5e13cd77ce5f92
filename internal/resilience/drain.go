package resilience

import (
	"io"
	"math"
)

// DrainAll is DrainClose's limit for a body the peer already bounds.
const DrainAll = math.MaxInt64

// DrainClose reads at most limit bytes of what is left of an HTTP response
// body, then closes it. Closing an unread body (a 503's error text, the
// tail a decoder left) makes the transport discard the connection instead
// of returning it to the keep-alive pool — at a sweep or probe cadence a
// steady TIME_WAIT leak; past the limit that is the cheaper outcome.
func DrainClose(body io.ReadCloser, limit int64) {
	io.Copy(io.Discard, io.LimitReader(body, limit))
	body.Close()
}

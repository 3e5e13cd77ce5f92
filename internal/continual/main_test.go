package continual

import (
	"testing"

	"diagnet/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine behind —
// controllers and trainers must all stop cleanly.
func TestMain(m *testing.M) {
	leakcheck.VerifyTestMain(m)
}

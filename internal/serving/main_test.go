package serving

import (
	"testing"

	"diagnet/internal/leakcheck"
)

// TestMain fails the package if any test leaves a goroutine behind —
// engine workers must all drain on Close.
func TestMain(m *testing.M) {
	leakcheck.VerifyTestMain(m)
}

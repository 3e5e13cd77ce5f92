package core

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestPassOwnsItsMemory: every activation and gradient of a pass comes from
// its one nn.Workspace (DESIGN.md §8, "Pass memory") — a session's for an
// inference pass, the fit's for a training step. The pass, postprocess,
// LandPool, the fit and the loss allocate no matrix of their own; Dense
// hands a workspace matrix, or the parameter's gradient, to the product as
// dst; ReLU works in place.
func TestPassOwnsItsMemory(t *testing.T) {
	fresh := regexp.MustCompile(`mat\.New\(|\.Clone\(\)|Mul(T[12])?\(nil,`)
	for _, path := range []string{
		"session.go",
		"diagnose.go",
		"../nn/landpool.go",
		"../nn/dense.go",
		"../nn/train.go",
		"../nn/loss.go",
	} {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if fresh.MatchString(line) {
				t.Errorf("%s:%d: %q: a pass takes its matrices from its workspace", path, i+1, strings.TrimSpace(line))
			}
		}
	}
}

package core

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestPassOwnsItsMemory: every activation and gradient of an inference
// pass comes from the session's one nn.Workspace (DESIGN.md §8, "Pass
// memory"). The pass, postprocess and LandPool allocate no matrix of
// their own; Dense hands a workspace matrix to the product as dst — only
// the training-mode weight-gradient product, allocated once per layer,
// comes from elsewhere — and ReLU works in place.
func TestPassOwnsItsMemory(t *testing.T) {
	pass := regexp.MustCompile(`mat\.New\(|\.Clone\(\)|Mul(T2)?\(nil,`)
	dense := regexp.MustCompile(`mat\.New\(|\.Clone\(\)|Mul(T[12])?\(nil,`)
	weightGrad := regexp.MustCompile(`^\t\t\td\.dw = mat\.New\(d\.In, d\.Out\)$`)

	for path, fresh := range map[string]*regexp.Regexp{
		"session.go":        pass,
		"diagnose.go":       pass,
		"../nn/landpool.go": pass,
		"../nn/dense.go":    dense,
	} {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(src), "\n") {
			if fresh.MatchString(line) && !(fresh == dense && weightGrad.MatchString(line)) {
				t.Errorf("%s:%d: %q: a pass takes its matrices from the session's workspace", path, i+1, strings.TrimSpace(line))
			}
		}
	}
}

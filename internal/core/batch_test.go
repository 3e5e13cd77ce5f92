package core

import (
	"testing"

	"diagnet/internal/probe"
)

func TestDiagnoseBatchEmpty(t *testing.T) {
	m := trainedModel(t)
	if got := m.DiagnoseBatch(nil, probe.FullLayout(), 4); len(got) != 0 {
		t.Fatal("empty batch")
	}
}

package serving

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestOneTrunkOnePass: a micro-batch is one Session.DiagnoseRows call
// (DESIGN.md §6), so no per-(service, layout) grouping loop may grow back
// in the engine: the package's own code names neither the layout
// comparison nor the per-model session lookup that loop was built from.
// That Specialize and Retrain(HeadOnly) alias the general trunk is
// asserted by core's TestDerivedModelsAliasTheTrunk and
// TestBundleHoldsOneTrunkOneForest.
func TestOneTrunkOnePass(t *testing.T) {
	grouping := regexp.MustCompile(`layoutEqual|sessionFor`)

	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, loc := range grouping.FindAllIndex(src, -1) {
			t.Errorf("%s: %q: a micro-batch is one session pass, not one per (service, layout) group", path, src[loc[0]:loc[1]])
		}
	}
	if checked == 0 {
		t.Fatal("no non-test Go file found in the package")
	}
}

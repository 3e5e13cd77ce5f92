package telemetry

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestOneMetricModel: Export is the only metric model and the dotted
// registry name the only name (DESIGN.md §10, §16). The Snapshot model
// stays deleted from every Go file outside bench/.
func TestOneMetricModel(t *testing.T) {
	snapshot := regexp.MustCompile(`HistogramSnapshot|MetricsSnapshot`)

	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	self, err := filepath.Abs("namespace_test.go") // spells the pattern
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || path == filepath.Join(root, "bench")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || path == self {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		files++
		rel, _ := filepath.Rel(root, path)
		for _, loc := range snapshot.FindAllIndex(src, -1) {
			t.Errorf("%s: %q: the Snapshot metric model is deleted; use telemetry.Export", rel, src[loc[0]:loc[1]])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files == 0 {
		t.Fatal("no Go file found under the module root")
	}
}

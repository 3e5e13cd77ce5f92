package cluster

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRouterForwards: placement is from health and load alone, and a batch
// envelope is scanned for element boundaries, not decoded (DESIGN.md §14).
// The affinity hash, the service-ID body scan that fed it and its switch
// stay deleted from every Go file outside bench/, and the routing tier's
// own code names no request or response type of the analysis plane — only
// its Retry-After parser.
func TestRouterForwards(t *testing.T) {
	affinity := regexp.MustCompile(`NoAffinity|rendezvous|scanServiceID|affinityKey`)
	analysisTypes := regexp.MustCompile(`analysis\.(Batch|Diagnose)(Request|Response)`)

	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	self, err := filepath.Abs("forwards_test.go") // spells the patterns
	if err != nil {
		t.Fatal(err)
	}
	here := filepath.Dir(self)
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
		for _, loc := range affinity.FindAllIndex(src, -1) {
			t.Errorf("%s: %q: the affinity routing is deleted", rel, src[loc[0]:loc[1]])
		}
		if filepath.Dir(path) == here && !strings.HasSuffix(path, "_test.go") {
			for _, loc := range analysisTypes.FindAllIndex(src, -1) {
				t.Errorf("%s: %q: the router forwards bytes and decodes no analysis type", rel, src[loc[0]:loc[1]])
			}
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

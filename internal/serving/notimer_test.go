package serving

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestNoBatchTimer: micro-batches are cut from the backlog (DESIGN.md
// §11). Nothing in the engine may wait on a clock, and no Go file outside
// bench/ may name the wait that used to tune it: BatchWait survives only
// as the field declaration, with its comment, that bench/stack.go's
// literal needs (ROADMAP item 1 deletes both).
func TestNoBatchTimer(t *testing.T) {
	clock := regexp.MustCompile(`time\.(NewTimer|NewTicker|After|AfterFunc|Sleep)`)
	wait := regexp.MustCompile(`BatchWait`)
	declaration := regexp.MustCompile(`^[[:space:]]*(//.*|BatchWait time\.Duration)$`)

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
		for _, loc := range clock.FindAllIndex(src, -1) {
			t.Errorf("%s: %q: the engine waits on no clock; a batch is what is queued now", path, src[loc[0]:loc[1]])
		}
	}
	if checked == 0 {
		t.Fatal("no non-test Go file found in the package")
	}

	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	self, err := filepath.Abs("notimer_test.go") // spells the pattern
	if err != nil {
		t.Fatal(err)
	}
	declared := filepath.Join(root, "internal", "serving", "serving.go")
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
		rel, _ := filepath.Rel(root, path)
		for i, line := range strings.Split(string(src), "\n") {
			if wait.MatchString(line) && !(path == declared && declaration.MatchString(line)) {
				t.Errorf("%s:%d: %q: BatchWait is gone outside its field declaration", rel, i+1, strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

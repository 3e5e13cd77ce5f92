package diagnet

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNamePathsThatExist: every examples/<x>, cmd/<x> and internal/<x>
// the reader-facing docs name exists in this repository, so a deleted
// example, command or package takes its mentions with it. Nor do they
// name a binary that became a subcommand of cmd/diagnet: every diagnet-<x>
// but diagnet-router, and landmarkd, landmark-probe and landmark-bench.
func TestDocsNamePathsThatExist(t *testing.T) {
	path := regexp.MustCompile(`\b(examples|cmd|internal)/[A-Za-z0-9][A-Za-z0-9_.-]*`)
	retired := regexp.MustCompile(`\b(diagnet-[a-z]+|landmarkd|landmark-probe|landmark-bench)\b`)
	for _, doc := range []string{"README.md", "examples/README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range path.FindAllString(string(src), -1) {
			p = strings.TrimRight(p, ".") // a sentence's full stop
			if _, err := os.Stat(p); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, p)
			}
		}
		for _, name := range retired.FindAllString(string(src), -1) {
			if name != "diagnet-router" {
				t.Errorf("%s names %s, which is a subcommand of cmd/diagnet now", doc, name)
			}
		}
	}
}

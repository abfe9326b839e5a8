package repro_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docRefs maps a reference pattern in the documentation to the check
// that what it names exists: a runnable directory, a package directory,
// a Makefile target or a committed benchmark file.
var docRefs = []struct {
	re     *regexp.Regexp
	exists func(makefile, ref string) bool
}{
	{regexp.MustCompile(`go run \./([\w./-]+)`), isDir},
	{regexp.MustCompile("`(internal/[\\w/]+)`"), isDir},
	{regexp.MustCompile(`\bmake ([a-z][\w-]*)`), func(makefile, target string) bool {
		return strings.Contains("\n"+makefile, "\n"+target+":")
	}},
	{regexp.MustCompile(`\b(BENCH_\w+\.json)\b`), func(_, path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}},
}

func isDir(_, path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// TestDocReferences fails on any command, package, make target or
// benchmark file the documentation names but the tree no longer has.
// CHANGES.md and ROADMAP.md record history and plans, and benchmark/
// documents itself, so none of them is scanned.
func TestDocReferences(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	examples, _ := filepath.Glob("examples/*/README.md")
	docs := append([]string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}, examples...)
	for _, doc := range docs {
		buf, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(buf), "\n") {
			for _, ref := range docRefs {
				for _, m := range ref.re.FindAllStringSubmatch(line, -1) {
					if !ref.exists(string(makefile), m[1]) {
						t.Errorf("%s:%d: %q names %q, which does not exist", doc, i+1, m[0], m[1])
					}
				}
			}
		}
	}
}

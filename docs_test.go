package repro_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// docRefs maps a reference pattern in the documentation to the check
// that what it names exists: a runnable directory, a package directory,
// a Makefile target, a committed benchmark file or a package-qualified
// Go identifier.
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
	{regexp.MustCompile("`([a-z]\\w*\\.[A-Z]\\w*)"), declared},
}

func isDir(_, path string) bool {
	fi, err := os.Stat(path)
	return err == nil && fi.IsDir()
}

// declared reports whether a backquoted pkg.Ident names something that
// exists: an identifier declared in the non-test files of internal/pkg,
// or anything in a standard-library package. A prefix that is neither
// is a package this repository no longer has.
func declared(_, ref string) bool {
	pkg, ident, _ := strings.Cut(ref, ".")
	if isDir("", "internal/"+pkg) {
		return internalDecls()[pkg][ident]
	}
	return stdPackages()[pkg]
}

// internalDecls maps each internal package to every top-level name,
// method, struct field and interface method its non-test files declare.
var internalDecls = sync.OnceValue(func() map[string]map[string]bool {
	decls := map[string]map[string]bool{}
	files, _ := filepath.Glob("internal/*/*.go")
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			continue
		}
		pkg := filepath.Base(filepath.Dir(file))
		if decls[pkg] == nil {
			decls[pkg] = map[string]bool{}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				decls[pkg][n.Name.Name] = true
				return false
			case *ast.TypeSpec:
				decls[pkg][n.Name.Name] = true
			case *ast.ValueSpec:
				for _, id := range n.Names {
					decls[pkg][id.Name] = true
				}
			case *ast.Field:
				for _, id := range n.Names {
					decls[pkg][id.Name] = true
				}
			}
			return true
		})
	}
	return decls
})

// stdPackages is the set of standard-library package names.
var stdPackages = sync.OnceValue(func() map[string]bool {
	names := map[string]bool{}
	root := filepath.Join(build.Default.GOROOT, "src")
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return nil
		}
		switch d.Name() {
		case "cmd", "internal", "testdata", "vendor":
			return filepath.SkipDir
		}
		names[d.Name()] = true
		return nil
	})
	return names
})

// TestDocReferences fails on any command, package, make target,
// benchmark file or identifier the documentation names but the tree no
// longer has.
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

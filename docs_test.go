package sparseadapt_test

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestEveryPackageHasDocComment walks every Go package in the repository
// (internal/, cmd/, examples/ and the root) and fails if any lacks a
// package doc comment on at least one of its files. CI runs this as part
// of the docs-health step, so new packages cannot land undocumented.
func TestEveryPackageHasDocComment(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	// dir -> true once a package comment is seen on any file in the dir.
	documented := map[string]bool{}
	var dirs []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if strings.HasPrefix(name, ".") && path != root {
				return filepath.SkipDir
			}
			if name == "testdata" || name == "obs-out" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if _, seen := documented[dir]; !seen {
			documented[dir] = false
			dirs = append(dirs, dir)
		}
		if documented[dir] {
			return nil
		}
		fset := token.NewFileSet()
		f, perr := parser.ParseFile(fset, path, nil, parser.PackageClauseOnly|parser.ParseComments)
		if perr != nil {
			t.Errorf("parse %s: %v", path, perr)
			return nil
		}
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			documented[dir] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if !documented[dir] {
			rel, _ := filepath.Rel(root, dir)
			t.Errorf("package in %s has no package doc comment on any file", rel)
		}
	}
}

// TestDocsNameExistingCommands fails if README.md, DESIGN.md or a
// docs/*.md page names a cmd/<x> binary (bare, or in a `go run ./cmd/<x>`
// line) that has no Go package in the repository, so folding or renaming
// a binary cannot leave its instructions behind. CI runs it in the
// docs-health step.
func TestDocsNameExistingCommands(t *testing.T) {
	pages, err := filepath.Glob(filepath.Join("docs", "*.md"))
	if err != nil {
		t.Fatal(err)
	}
	pages = append([]string{"README.md", "DESIGN.md"}, pages...)
	cmdRef := regexp.MustCompile(`\bcmd/([A-Za-z0-9_-]+)`)
	exists := map[string]bool{}
	for _, page := range pages {
		data, err := os.ReadFile(page)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, m := range cmdRef.FindAllStringSubmatch(line, -1) {
				name := m[1]
				if _, seen := exists[name]; !seen {
					gofiles, _ := filepath.Glob(filepath.Join("cmd", name, "*.go"))
					exists[name] = len(gofiles) > 0
				}
				if !exists[name] {
					t.Errorf("%s:%d names cmd/%s, which does not exist", page, i+1, name)
				}
			}
		}
	}
}

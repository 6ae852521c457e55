package sparseadapt_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// epochLoops are the only functions allowed to call RunEpoch inside a for
// statement: core.Drive runs every controlled execution, sim.RunEpochs is
// the cold fixed-configuration replay behind the oracle and the trainer,
// and the tenant multiplexer's serve interleaves tenants' epochs on one
// machine.
var epochLoops = []string{
	"internal/core.Drive",
	"internal/sim.RunEpochs",
	"internal/tenant.(*Mux).serve",
}

// TestOneEpochLoop parses every non-test Go file in the repository and
// fails if .RunEpoch( is called inside a for statement anywhere but the
// epochLoops, so a new policy becomes a core.Step instead of another
// hand-rolled epoch loop. CI runs it in the docs-health step.
func TestOneEpochLoop(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	var found []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if (strings.HasPrefix(name, ".") && path != root) || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, perr := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if perr != nil {
			t.Errorf("parse %s: %v", path, perr)
			return nil
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if ok && fn.Body != nil && runEpochInLoop(fn.Body) {
				found = append(found, filepath.ToSlash(rel)+"."+funcName(fn))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(found)
	want := append([]string(nil), epochLoops...)
	sort.Strings(want)
	if strings.Join(found, " ") != strings.Join(want, " ") {
		t.Errorf("functions calling RunEpoch inside a for statement:\n  %s\nwant exactly:\n  %s\n(drive a new policy as a core.Step through core.Drive)",
			strings.Join(found, "\n  "), strings.Join(want, "\n  "))
	}
}

// runEpochInLoop reports whether body calls a RunEpoch method inside a for
// or range statement.
func runEpochInLoop(body *ast.BlockStmt) bool {
	hit := false
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			ast.Inspect(n, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "RunEpoch" {
						hit = true
					}
				}
				return !hit
			})
			return false
		}
		return !hit
	})
	return hit
}

// funcName renders a function or method as pkg-relative "Name" or
// "(*T).Name".
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	switch r := fn.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := r.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fn.Name.Name
		}
	case *ast.Ident:
		return "(" + r.Name + ")." + fn.Name.Name
	}
	return fn.Name.Name
}

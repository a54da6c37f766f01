package spiffi_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// procAllowed names the packages outside internal/sim that may still
// mention sim.Proc, and why.
var procAllowed = map[string]string{
	"internal/cpu": "Execute and Receive stay for the repo benchmark's cpu.execute micro-benchmark until ROADMAP item 1(d)",
}

// Every simulated component runs as a sim.Action continuation: no
// non-test file of this module outside internal/sim may spawn a process
// (Spawn, SpawnAt) or take one (sim.Proc), so a second execution model
// cannot come back unnoticed. Nested modules (bench) are not scanned.
func TestOnlySimRunsProcesses(t *testing.T) {
	fset := token.NewFileSet()
	var bad []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "." {
				return nil
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") || dir == "internal/sim" {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		simName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "spiffi/internal/sim" {
				simName = "sim"
				if imp.Name != nil {
					simName = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch name := sel.Sel.Name; {
			case name == "Spawn" || name == "SpawnAt":
			case name == "Proc" && simName != "" && isIdent(sel.X, simName) && procAllowed[dir] == "":
			default:
				return true
			}
			bad = append(bad, fset.Position(sel.Pos()).String()+": "+sel.Sel.Name)
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bad {
		t.Errorf("%s: only internal/sim may run processes; schedule a sim.Action instead", b)
	}
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strconv"
	"testing"
)

// The benchmark uses only the halves of each twin that ROADMAP item 2 keeps,
// so deleting the others never requires editing it: not the reference data
// path, the Router, wire v1, the vanilla FTL and the B+tree directly, the gob
// image, legacy View.Export, or srv's own load generator.
func TestBenchImportsOnlyWhatSurvives(t *testing.T) {
	bannedImports := map[string]bool{
		"iosnap/internal/ftl":     true,
		"iosnap/internal/ftlmap":  true,
		"iosnap/internal/xport":   true,
		"iosnap/internal/harness": true,
		"encoding/gob":            true,
	}
	bannedIdents := map[string]bool{
		"ReferenceDataPath": true,
		"Router":            true, "NewRouter": true, "RouterStats": true,
		"ForceV1": true, "V1": true, "RunLoad": true, "LoadConfig": true,
		"Export": true, "ImportInto": true,
		"RecoverFullScan": true,
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, pkg := range pkgs {
		for name, f := range pkg.Files {
			files++
			for _, imp := range f.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if bannedImports[path] {
					t.Errorf("%s imports %s", name, path)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && bannedIdents[id.Name] {
					t.Errorf("%s uses %s", fset.Position(id.Pos()), id.Name)
				}
				return true
			})
		}
	}
	if files < 10 {
		t.Fatalf("parsed %d files; the test is not looking at the benchmark", files)
	}
}

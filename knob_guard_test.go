package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"slices"
	"strings"
	"testing"
)

// Every settable Config field is a knob some caller may turn and every test
// matrix has to cover. This guard pins the list: adding or removing a knob
// fails it until the list below moves in the same commit. Embedded fields
// (iosnap.Config's logcore.Config) count where they are declared.

var knobsPinned = map[string][]string{
	"internal/logcore": {"Nand", "UserSectors", "ReserveSegments", "GCWindow", "GCChunk", "MapCachePages", "RescueReserve", "CheckpointInterval"},
	"internal/iosnap":  {"GCPolicy", "CoWPageCost", "BitmapPageBits", "SelectiveScan", "ScrubInterval", "ScrubLimit"},
	"internal/shard":   {"Base", "Shards"},
}

// configKnobs lists the exported, named fields of the Config struct declared
// in the non-test files of dir, in declaration order.
func configKnobs(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var knobs []string
	for _, p := range pkgs {
		for _, file := range p.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				ts, ok := n.(*ast.TypeSpec)
				if !ok || ts.Name.Name != "Config" {
					return true
				}
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					return false
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						if name.IsExported() {
							knobs = append(knobs, name.Name)
						}
					}
				}
				return false
			})
		}
	}
	if knobs == nil {
		t.Fatalf("%s declares no Config struct", dir)
	}
	return knobs
}

func TestConfigKnobsPinned(t *testing.T) {
	total := 0
	for dir, want := range knobsPinned {
		got := configKnobs(t, dir)
		total += len(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s Config knobs moved:\n got: %s\nwant: %s", dir, strings.Join(got, " "), strings.Join(want, " "))
		}
	}
	t.Logf("%d settable Config fields", total)
}

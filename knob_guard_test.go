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
// matrix has to cover, and so is every exported field of the socket server.
// This guard pins the lists: adding or removing a knob fails it until the
// list below moves in the same commit. Embedded fields (iosnap.Config's
// logcore.Config) count where they are declared.

var knobsPinned = map[string][]string{
	"internal/logcore": {"Nand", "UserSectors", "ReserveSegments", "GCWindow", "GCChunk", "MapCachePages", "RescueReserve", "CheckpointInterval"},
	"internal/iosnap":  {"GCPolicy", "CoWPageCost", "BitmapPageBits", "SelectiveScan", "ScrubInterval", "ScrubLimit"},
	"internal/shard":   {"Base", "Shards"},
}

// serverKnobsPinned lists srv.Server's settable fields.
var serverKnobsPinned = []string{"Window", "ViewTTL"}

// policyMethodsPinned lists logcore.Policy's methods: the seam between the
// log engine and the two FTLs. Growing it moves this list.
var policyMethodsPinned = []string{"PickVictim", "PlanClean", "HeadAdvanced", "SegmentTracked", "SegmentReleased", "RunCommitted", "SerializeCheckpoint"}

// declaredNames lists the exported, named fields of the struct typ, or the
// methods of the interface typ, declared in the non-test files of dir, in
// declaration order.
func declaredNames(t *testing.T, dir, typ string) []string {
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
				if !ok || ts.Name.Name != typ {
					return true
				}
				var fields *ast.FieldList
				switch tt := ts.Type.(type) {
				case *ast.StructType:
					fields = tt.Fields
				case *ast.InterfaceType:
					fields = tt.Methods
				default:
					return false
				}
				for _, field := range fields.List {
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
		t.Fatalf("%s declares no %s", dir, typ)
	}
	return knobs
}

func TestConfigKnobsPinned(t *testing.T) {
	total := 0
	for dir, want := range knobsPinned {
		got := declaredNames(t, dir, "Config")
		total += len(got)
		if !slices.Equal(got, want) {
			t.Errorf("%s Config knobs moved:\n got: %s\nwant: %s", dir, strings.Join(got, " "), strings.Join(want, " "))
		}
	}
	if got := declaredNames(t, "internal/srv", "Server"); !slices.Equal(got, serverKnobsPinned) {
		t.Errorf("srv.Server knobs moved:\n got: %s\nwant: %s", strings.Join(got, " "), strings.Join(serverKnobsPinned, " "))
	}
	t.Logf("%d settable Config fields, %d settable Server fields", total, len(serverKnobsPinned))
}

func TestPolicyMethodsPinned(t *testing.T) {
	if got := declaredNames(t, "internal/logcore", "Policy"); !slices.Equal(got, policyMethodsPinned) {
		t.Errorf("logcore.Policy methods moved:\n got: %s\nwant: %s", strings.Join(got, " "), strings.Join(policyMethodsPinned, " "))
	}
}

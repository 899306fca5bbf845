package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The log engine exists once: internal/logcore holds the mechanics and
// internal/ftl / internal/iosnap keep only policy, and the engine's
// behaviour is tested once, in internal/logcore. The two commands that
// persist device images share their helpers through the internal packages
// (vfs.WriteAtomic saves an image). This guard keeps a twin from growing
// back — it fails when any two of these packages declare a same-named
// function or method, in code or in tests, whose bodies are identical
// (comments, the package's error prefix and the names of the function's own
// receiver, parameters, results and locals aside) and longer than three
// lines.

var twinGuardPkgs = []string{"internal/logcore", "internal/ftl", "internal/iosnap", "cmd/iosnapctl", "cmd/iosnapd"}

// twinFixtures are test helpers each FTL package keeps its own copy of on
// purpose: they feed constants pinned in that package's tests, or call that
// package's own New, so sharing them would couple the two packages' pins.
var twinFixtures = map[string]string{
	"deviceDigest":  "feeds the pinned seeded runs' constants",
	"runDigest.op":  "feeds the pinned seeded runs' constants",
	"runPattern":    "feeds the pinned seeded runs' constants",
	"sectorPattern": "feeds constants pinned in the package's tests",
	"newTestFTL":    "calls the package's own New",
}

// twinFunc is one function, printed without comments.
type twinFunc struct {
	pkg, name, body string
	lines           int
}

func twinFuncs(t *testing.T, dir string) []twinFunc {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, nil, 0) // mode 0: comments are not parsed, so they cannot differ
	if err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		t.Fatal(err)
	}
	var out []twinFunc
	for _, p := range pkgs {
		for _, file := range p.Files {
			for _, d := range file.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				name := fn.Name.Name
				if fn.Recv != nil && len(fn.Recv.List) == 1 {
					var rb bytes.Buffer
					printer.Fprint(&rb, fset, fn.Recv.List[0].Type)
					name = strings.TrimPrefix(rb.String(), "*") + "." + name
				}
				normalizeLocals(fn)
				var b bytes.Buffer
				if err := printer.Fprint(&b, fset, fn.Body); err != nil {
					t.Fatal(err)
				}
				body := b.String()
				for _, prefix := range []string{`"ftl: `, `"iosnap: `, `"logcore: `} {
					body = strings.ReplaceAll(body, prefix, `"`)
				}
				// The printed body is "{\n...\n}": its line count minus the braces.
				out = append(out, twinFunc{pkg: dir, name: name, body: body, lines: strings.Count(body, "\n") - 1})
			}
		}
	}
	return out
}

// normalizeLocals renames every variable fn declares — its receiver,
// parameters, results and locals — after the order it is first met in, so
// two bodies that differ only in those names print alike. Names declared
// outside fn, and string literals, stay as they are.
func normalizeLocals(fn *ast.FuncDecl) {
	renamed := make(map[*ast.Object]string)
	ast.Inspect(fn, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || id.Obj == nil || id.Obj.Kind != ast.Var {
			return true
		}
		if decl, ok := id.Obj.Decl.(ast.Node); !ok || decl.Pos() < fn.Pos() || decl.End() > fn.End() {
			return true
		}
		name, ok := renamed[id.Obj]
		if !ok {
			name = fmt.Sprintf("v%d", len(renamed))
			renamed[id.Obj] = name
		}
		id.Name = name
		return true
	})
}

// twinOffenders lists the functions declared identically in two of dirs,
// and their body lines in all.
func twinOffenders(t *testing.T, dirs []string) (offenders []string, total int) {
	t.Helper()
	seen := make(map[string][]twinFunc)
	for _, dir := range dirs {
		for _, f := range twinFuncs(t, dir) {
			seen[f.name] = append(seen[f.name], f)
		}
	}
	for name, fs := range seen {
		for i := 0; i < len(fs); i++ {
			for j := i + 1; j < len(fs); j++ {
				if _, fixture := twinFixtures[name]; !fixture && fs[i].pkg != fs[j].pkg && fs[i].lines > 3 && fs[i].body == fs[j].body {
					offenders = append(offenders, name+" ("+fs[i].pkg+", "+fs[j].pkg+")")
					total += fs[i].lines
				}
			}
		}
	}
	sort.Strings(offenders)
	return offenders, total
}

func TestNoTwinFunctions(t *testing.T) {
	if offenders, total := twinOffenders(t, twinGuardPkgs); len(offenders) > 0 {
		t.Errorf("%d functions (%d body lines) are declared identically in two guarded packages; move one copy into internal/logcore, or for the commands into the internal package it serves (a test fixture that must stay per package goes in twinFixtures, with why):\n  %s",
			len(offenders), total, strings.Join(offenders, "\n  "))
	}
}

// TestTwinGuardIgnoresLocalNames: two commands each declaring the same
// image writer, one naming its path parameter image and the other path,
// are twins.
func TestTwinGuardIgnoresLocalNames(t *testing.T) {
	const writer = `package main

func writeImage(%[1]s string, dev *nand.Device) error {
	a, err := vfs.NewAtomicFile(fsys, %[1]s)
	if err != nil {
		return err
	}
	if err := dev.SaveImage(a); err != nil {
		a.Abort()
		return err
	}
	return a.Commit()
}
`
	var dirs []string
	for _, param := range []string{"image", "path"} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(fmt.Sprintf(writer, param)), 0o644); err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, dir)
	}
	if offenders, _ := twinOffenders(t, dirs); len(offenders) != 1 {
		t.Fatalf("twin writers differing in a parameter name: offenders %v, want writeImage", offenders)
	}
}

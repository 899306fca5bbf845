package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"os"
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
// (comments and the package's error prefix aside) and longer than three
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

func TestNoTwinFunctions(t *testing.T) {
	seen := make(map[string][]twinFunc)
	for _, dir := range twinGuardPkgs {
		for _, f := range twinFuncs(t, dir) {
			seen[f.name] = append(seen[f.name], f)
		}
	}
	var offenders []string
	total := 0
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
	if len(offenders) > 0 {
		sort.Strings(offenders)
		t.Errorf("%d functions (%d body lines) are declared identically in two guarded packages; move one copy into internal/logcore, or for the commands into the internal package it serves (a test fixture that must stay per package goes in twinFixtures, with why):\n  %s",
			len(offenders), total, strings.Join(offenders, "\n  "))
	}
}

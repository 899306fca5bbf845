package main

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"sort"
	"strings"
	"testing"
)

// The log engine exists once: internal/logcore holds the mechanics and
// internal/ftl / internal/iosnap keep only policy. This guard keeps the twin
// from growing back — it fails when any two of the three packages declare a
// same-named function or method whose bodies are identical (comments and the
// package's error prefix aside) and longer than three lines.

var twinGuardPkgs = []string{"internal/logcore", "internal/ftl", "internal/iosnap"}

// twinFunc is one non-test function, printed without comments.
type twinFunc struct {
	pkg, name, body string
	lines           int
}

func twinFuncs(t *testing.T, dir string) []twinFunc {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0) // mode 0: comments are not parsed, so they cannot differ
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
				if fs[i].pkg != fs[j].pkg && fs[i].lines > 3 && fs[i].body == fs[j].body {
					offenders = append(offenders, name+" ("+fs[i].pkg+", "+fs[j].pkg+")")
					total += fs[i].lines
				}
			}
		}
	}
	if len(offenders) > 0 {
		sort.Strings(offenders)
		t.Errorf("%d functions (%d body lines) are declared identically in two log-engine packages; move one copy into internal/logcore:\n  %s",
			len(offenders), total, strings.Join(offenders, "\n  "))
	}
}

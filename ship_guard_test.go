package main

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// Every package the module ships is there for a command to run. Code that
// only demonstrates or tests a package belongs in that package's _test.go
// files, where go test checks it. This guard fails when a non-test package
// is neither a command under cmd/ nor reached from one through non-test
// imports. The nested bench/ module has its own go.mod and is not walked.

const modulePath = "iosnap"

// moduleImports maps the import path of every package of the module that
// has non-test Go files to the module-local packages those files import.
func moduleImports(t *testing.T) map[string][]string {
	t.Helper()
	pkgs := make(map[string][]string)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." {
			name := d.Name()
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		parsed, err := parser.ParseDir(token.NewFileSet(), path, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ImportsOnly)
		if err != nil || len(parsed) == 0 {
			return err
		}
		var deps []string
		for _, p := range parsed {
			for _, f := range p.Files {
				for _, spec := range f.Imports {
					dep, _ := strconv.Unquote(spec.Path.Value)
					if strings.HasPrefix(dep, modulePath+"/") {
						deps = append(deps, dep)
					}
				}
			}
		}
		pkgs[modulePath+"/"+filepath.ToSlash(path)] = deps
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

func TestEveryPackageShips(t *testing.T) {
	pkgs := moduleImports(t)
	var queue []string
	for p := range pkgs {
		if strings.HasPrefix(p, modulePath+"/cmd/") {
			queue = append(queue, p)
		}
	}
	commands := len(queue)
	if commands == 0 {
		t.Fatal("found no command under cmd/")
	}
	reached := make(map[string]bool)
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		if !reached[p] {
			reached[p] = true
			queue = append(queue, pkgs[p]...)
		}
	}
	var unshipped []string
	for p := range pkgs {
		if !reached[p] {
			unshipped = append(unshipped, p)
		}
	}
	if len(unshipped) > 0 {
		sort.Strings(unshipped)
		t.Errorf("%d packages are reached from no command under cmd/; move code that only demonstrates or tests a package into its _test.go files:\n  %s",
			len(unshipped), strings.Join(unshipped, "\n  "))
	}
	t.Logf("%d packages, %d reached from %d commands", len(pkgs), len(reached), commands)
}

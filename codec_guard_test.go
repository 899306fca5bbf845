package main

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// Every record the repository stores or ships is framed by one package,
// internal/codec: checkpoint streams, translation pages, transfer streams
// and sidecars, device images. This guard keeps a second framing from
// growing back — it fails when a non-test file anywhere in the tree (the
// nested bench/ module included) outside the codec package imports a
// frame checksum or a self-describing encoder.

var framingImports = []string{"hash/crc32", "encoding/gob"}

func TestOneFrameCodec(t *testing.T) {
	codecDir := filepath.Join("internal", "codec")
	files, sawCodec := 0, false
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		files++
		inCodec := filepath.Dir(path) == codecDir
		for _, spec := range f.Imports {
			imp, _ := strconv.Unquote(spec.Path.Value)
			for _, banned := range framingImports {
				if imp != banned {
					continue
				}
				if inCodec {
					sawCodec = true
				} else {
					t.Errorf("%s imports %s: frame records with internal/codec", path, imp)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files < 50 || !sawCodec {
		t.Fatalf("walked %d non-test files, codec's own checksum import seen %v: the guard is not looking at the tree", files, sawCodec)
	}
}

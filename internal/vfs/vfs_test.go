package vfs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestOSRoundTrip exercises the OS implementation end to end: atomic write,
// read-back, rename, remove, and the not-exist error contract.
func TestOSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	fsys := OS{}
	path := filepath.Join(dir, "sidecar.gen")
	if err := WriteFileAtomic(fsys, path, []byte("generation-1")); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	b, err := ReadFile(fsys, path)
	if err != nil || string(b) != "generation-1" {
		t.Fatalf("ReadFile = %q, %v", b, err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	// Overwrite is atomic and leaves the new content.
	if err := WriteFileAtomic(fsys, path, []byte("generation-2")); err != nil {
		t.Fatal(err)
	}
	if b, _ := ReadFile(fsys, path); string(b) != "generation-2" {
		t.Fatalf("after overwrite: %q", b)
	}
	if err := fsys.Remove(path); err != nil {
		t.Fatal(err)
	}
	_, err = ReadFile(fsys, path)
	if !IsNotExist(err) {
		t.Fatalf("read of removed file: %v (want not-exist)", err)
	}
}

// TestMemBehavesLikeAFilesystem checks the fake against the same contract
// the OS implementation satisfies.
func TestMemBehavesLikeAFilesystem(t *testing.T) {
	m := NewMem()
	if _, err := m.Open("missing"); !IsNotExist(err) {
		t.Fatalf("open missing: %v", err)
	}
	if err := m.Remove("missing"); !IsNotExist(err) {
		t.Fatalf("remove missing: %v", err)
	}
	if err := m.Rename("missing", "x"); !IsNotExist(err) {
		t.Fatalf("rename missing: %v", err)
	}
	f, err := m.Create("a/b.txt")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := ReadFile(m, "a/b.txt")
	if err != nil || string(b) != "hello world" {
		t.Fatalf("ReadFile = %q, %v", b, err)
	}
	if err := m.Rename("a/b.txt", "a/c.txt"); err != nil {
		t.Fatal(err)
	}
	if m.Exists("a/b.txt") || !m.Exists("a/c.txt") {
		t.Fatal("rename did not move the entry")
	}
	// Create truncates.
	f2, err := m.Create("a/c.txt")
	if err != nil {
		t.Fatal(err)
	}
	f2.Close()
	if b, _ := ReadFile(m, "a/c.txt"); len(b) != 0 {
		t.Fatalf("create did not truncate: %q", b)
	}
}

// TestMemCrashDropsUnsyncedData is the durability model itself: bytes
// survive a crash only up to the last Sync, entries only past a SyncDir.
func TestMemCrashDropsUnsyncedData(t *testing.T) {
	m := NewMem()
	f, _ := m.Create("d/file")
	f.Write([]byte("durable"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Write([]byte("-volatile"))
	f.Close()
	if err := m.SyncDir("d"); err != nil {
		t.Fatal(err)
	}

	// A second file whose direntry was never made durable.
	g, _ := m.Create("d/ghost")
	g.Write([]byte("never here"))
	g.Sync() // bytes synced, but the entry is not
	g.Close()

	m.Crash()

	b, err := ReadFile(m, "d/file")
	if err != nil || string(b) != "durable" {
		t.Fatalf("after crash: %q, %v (want synced prefix only)", b, err)
	}
	if m.Exists("d/ghost") {
		t.Fatal("file with unsynced direntry survived the crash")
	}
}

// TestWriteFileAtomicSurvivesCrash: after WriteFileAtomic returns, a crash
// must surface the complete new content — that is the helper's whole
// contract, and the fsync-less version of the helper fails this test.
func TestWriteFileAtomicSurvivesCrash(t *testing.T) {
	m := NewMem()
	if err := WriteFileAtomic(m, "d/x.gen", []byte("epoch-1")); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	b, err := ReadFile(m, "d/x.gen")
	if err != nil || string(b) != "epoch-1" {
		t.Fatalf("after crash: %q, %v", b, err)
	}
	// Overwrite, crash: the new content (not a torn mix) survives.
	if err := WriteFileAtomic(m, "d/x.gen", []byte("epoch-2-longer")); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	b, err = ReadFile(m, "d/x.gen")
	if err != nil || string(b) != "epoch-2-longer" {
		t.Fatalf("after overwrite crash: %q, %v", b, err)
	}
	if m.Exists("d/x.gen.tmp") {
		t.Fatal("temp file survived")
	}
}

// TestWriteFileAtomicCrashMidway: a crash at ANY point before
// WriteFileAtomic returns leaves either the old content or the new content
// — never a torn file, never a missing file when one durably existed.
func TestWriteFileAtomicCrashMidway(t *testing.T) {
	for failAt := 0; ; failAt++ {
		m := NewMem()
		if err := WriteFileAtomic(m, "d/s", []byte("old")); err != nil {
			t.Fatal(err)
		}
		n := 0
		injected := false
		m.FailOp = func(op Op, name string) error {
			// Fail the failAt'th mutating op of the second write.
			if op == OpOpen {
				return nil
			}
			if n == failAt {
				n++
				injected = true
				return fmt.Errorf("injected %s failure on %s", op, name)
			}
			n++
			return nil
		}
		err := WriteFileAtomic(m, "d/s", []byte("new-content"))
		m.FailOp = nil
		if !injected {
			// The whole sequence ran without hitting the injection point:
			// every op index has been covered.
			if err != nil {
				t.Fatalf("failAt=%d: clean run errored: %v", failAt, err)
			}
			return
		}
		// Whether or not the helper reported the injected error (a SyncDir
		// failure after rename may be unreportable-but-harmless), a crash
		// must surface exactly "old" or "new-content".
		m.Crash()
		b, rerr := ReadFile(m, "d/s")
		if rerr != nil {
			t.Fatalf("failAt=%d: durable file lost: %v", failAt, rerr)
		}
		if s := string(b); s != "old" && s != "new-content" {
			t.Fatalf("failAt=%d: torn content %q", failAt, s)
		}
	}
}

// TestAtomicFileStreamsAndCommits drives the streaming writer with many
// small writes (the SaveImage pattern) and checks durability.
func TestAtomicFileStreamsAndCommits(t *testing.T) {
	m := NewMem()
	a, err := NewAtomicFile(m, "img/dev.img")
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for i := 0; i < 100; i++ {
		chunk := bytes.Repeat([]byte{byte(i)}, 128)
		want.Write(chunk)
		if _, err := a.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Commit(); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	b, err := ReadFile(m, "img/dev.img")
	if err != nil || !bytes.Equal(b, want.Bytes()) {
		t.Fatalf("streamed image lost or torn after crash: %d bytes, %v", len(b), err)
	}
	if err := a.Commit(); err == nil {
		t.Fatal("double commit accepted")
	}
}

// TestAtomicFileAbort leaves no trace.
func TestAtomicFileAbort(t *testing.T) {
	m := NewMem()
	a, err := NewAtomicFile(m, "img/dev.img")
	if err != nil {
		t.Fatal(err)
	}
	a.Write([]byte("partial"))
	a.Abort()
	if m.Exists("img/dev.img") || m.Exists("img/dev.img.tmp") {
		t.Fatal("abort left files behind")
	}
}

// TestWriteAtomicAbortsOnError: a write function that fails after
// streaming part of the content returns its error and leaves the old file
// as it was, with no temporary file behind.
func TestWriteAtomicAbortsOnError(t *testing.T) {
	m := NewMem()
	if err := WriteFileAtomic(m, "img/dev.img", []byte("old")); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("save failed")
	err := WriteAtomic(m, "img/dev.img", func(w io.Writer) error {
		w.Write([]byte("partial"))
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteAtomic = %v, want the write function's error", err)
	}
	if b, err := ReadFile(m, "img/dev.img"); err != nil || string(b) != "old" {
		t.Fatalf("after the failed write the file holds %q (%v), want the old content", b, err)
	}
	if m.Exists("img/dev.img.tmp") {
		t.Fatal("the failed write left its temporary file behind")
	}
}

// TestAtomicFileWriteFailure propagates the first write error and cleans up.
func TestAtomicFileWriteFailure(t *testing.T) {
	m := NewMem()
	boom := errors.New("disk full")
	a, err := NewAtomicFile(m, "d/f")
	if err != nil {
		t.Fatal(err)
	}
	m.FailOp = func(op Op, name string) error {
		if op == OpWrite {
			return boom
		}
		return nil
	}
	if _, err := a.Write([]byte("x")); !errors.Is(err, boom) {
		t.Fatalf("write error = %v", err)
	}
	m.FailOp = nil
	if err := a.Commit(); !errors.Is(err, boom) {
		t.Fatalf("commit after failed write = %v (want the write error)", err)
	}
	if m.Exists("d/f") || m.Exists("d/f.tmp") {
		t.Fatal("failed atomic write left files behind")
	}
}

// TestMemReadEOF: handles read sequentially to EOF like real files, so
// io.ReadAll works over them.
func TestMemReadEOF(t *testing.T) {
	m := NewMem()
	f, _ := m.Create("f")
	f.Write(make([]byte, 8192))
	f.Close()
	r, err := m.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(r)
	if err != nil || len(b) != 8192 {
		t.Fatalf("ReadAll = %d bytes, %v", len(b), err)
	}
	r.Close()
}

// TestMemLen: a handle's Len is what its reads have still to return —
// the whole file when opened, less after each read, none at the end — and,
// once a Crash has cut the file to its durable prefix, what is left of that.
func TestMemLen(t *testing.T) {
	m := NewMem()
	w, _ := m.Create("f")
	w.Write([]byte("hello world"))
	w.Sync()
	m.SyncDir(".")
	w.Write([]byte(", unsynced"))
	w.Close()
	r, err := m.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	type lener interface{ Len() int }
	check := func(what string, want int) {
		t.Helper()
		if got := r.(lener).Len(); got != want {
			t.Errorf("%s: Len = %d, want %d", what, got, want)
		}
	}
	check("opened", 21)
	r.Read(make([]byte, 4))
	check("after a 4-byte read", 17)
	m.Crash()
	check("after Crash", 7)
	if b, err := io.ReadAll(r); string(b) != "o world" || err != nil {
		t.Errorf("ReadAll after Crash = %q, %v", b, err)
	}
	check("at the end", 0)
}

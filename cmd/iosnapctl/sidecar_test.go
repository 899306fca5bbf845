package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iosnap/internal/vfs"
)

// failFS wraps the real filesystem and fails creates whose path matches a
// substring — the "sidecar disk broke" fault for persist-propagation tests.
type failFS struct {
	vfs.FileSystem
	match string
	err   error
	fired int
}

func (f *failFS) Create(name string) (vfs.File, error) {
	if strings.Contains(name, f.match) {
		f.fired++
		return nil, f.err
	}
	return f.FileSystem.Create(name)
}

// replicaFixture initializes a source with a snapshot and an exported
// stream plus an empty destination, returning their paths.
func replicaFixture(t *testing.T) (src, dst, stream string) {
	t.Helper()
	dir := t.TempDir()
	src = filepath.Join(dir, "src.img")
	dst = filepath.Join(dir, "dst.img")
	stream = filepath.Join(dir, "stream.bin")
	for _, img := range []string{src, dst} {
		if err := runCtl(t, img, "init", "-megabytes", "8"); err != nil {
			t.Fatal(err)
		}
	}
	for lba := 0; lba < 4; lba++ {
		if err := runCtl(t, src, "write", "-lba", fmt.Sprint(lba), "-text", fmt.Sprintf("v-%d", lba)); err != nil {
			t.Fatal(err)
		}
	}
	if err := runCtl(t, src, "snap-create"); err != nil {
		t.Fatal(err)
	}
	if err := runCtl(t, src, "export", "-id", "1", "-out", stream); err != nil {
		t.Fatal(err)
	}
	return src, dst, stream
}

// TestCLIImportPersistFailureAborts: a journal that cannot be written must
// abort the import with the persist error — not "succeed" with a resume
// contract that never reached disk. (Regression: the error used to be
// swallowed with `_ = writeFileAtomic(...)`.)
func TestCLIImportPersistFailureAborts(t *testing.T) {
	_, dst, stream := replicaFixture(t)

	boom := errors.New("injected sidecar write failure")
	ff := &failFS{FileSystem: fsys, match: ".journal", err: boom}
	old := fsys
	fsys = ff
	err := runCtl(t, dst, "import", "-in", stream)
	fsys = old
	if !errors.Is(err, boom) {
		t.Fatalf("import with failing journal persist returned %v, want the persist error", err)
	}
	if ff.fired == 0 {
		t.Fatal("fault never fired — the test exercised nothing")
	}
	if _, err := os.Stat(dst + ".gen"); !os.IsNotExist(err) {
		t.Fatal("aborted import must not commit a generation manifest")
	}
	// With the fault cleared the import completes and verifies.
	if err := runCtl(t, dst, "import", "-in", stream); err != nil {
		t.Fatalf("import after fault cleared: %v", err)
	}
	if err := runCtl(t, dst, "verify"); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestCLIReplicatePersistFailureAborts: same contract for the replicate
// verb's journal sidecar.
func TestCLIReplicatePersistFailureAborts(t *testing.T) {
	src, dst, _ := replicaFixture(t)

	boom := errors.New("injected sidecar write failure")
	ff := &failFS{FileSystem: fsys, match: ".journal", err: boom}
	old := fsys
	fsys = ff
	err := runCtl(t, src, "replicate", "-id", "1", "-dst", dst)
	fsys = old
	if !errors.Is(err, boom) {
		t.Fatalf("replicate with failing journal persist returned %v, want the persist error", err)
	}
	if ff.fired == 0 {
		t.Fatal("fault never fired")
	}
	if _, err := os.Stat(dst + ".gen"); !os.IsNotExist(err) {
		t.Fatal("failed replicate must not commit a generation manifest")
	}
	if err := runCtl(t, src, "replicate", "-id", "1", "-dst", dst); err != nil {
		t.Fatalf("replicate after fault cleared: %v", err)
	}
	if err := runCtl(t, dst, "verify"); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestCLICorruptSidecarFailsLoudly: a corrupt generation manifest must
// fail the verb, not be silently treated as "fresh replica" (which would
// re-clear and overwrite a replica whose true state is unknown). A MISSING
// sidecar is the legitimate fresh case and must keep working.
func TestCLICorruptSidecarFailsLoudly(t *testing.T) {
	src, dst, stream := replicaFixture(t)

	// Commit a first generation so the sidecar exists.
	if err := runCtl(t, dst, "import", "-in", stream); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst+".gen", []byte("garbage manifest"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := runCtl(t, dst, "import", "-in", stream)
	if err == nil || !strings.Contains(err.Error(), "generation sidecar") {
		t.Fatalf("import with corrupt .gen returned %v, want a loud sidecar failure", err)
	}
	err = runCtl(t, src, "replicate", "-id", "1", "-dst", dst)
	if err == nil || !strings.Contains(err.Error(), "generation sidecar") {
		t.Fatalf("replicate with corrupt .gen returned %v, want a loud sidecar failure", err)
	}

	// An unreadable journal sidecar fails loudly too (a directory is a
	// reliable read error on every platform).
	if err := os.Remove(dst + ".gen"); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(dst+".journal", 0o755); err != nil {
		t.Fatal(err)
	}
	err = runCtl(t, dst, "import", "-in", stream)
	if err == nil || !strings.Contains(err.Error(), "journal sidecar") {
		t.Fatalf("import with unreadable .journal returned %v, want a loud sidecar failure", err)
	}
	if err := os.Remove(dst + ".journal"); err != nil {
		t.Fatal(err)
	}

	// Missing sidecars (the fresh-replica case) still proceed.
	if err := runCtl(t, dst, "import", "-in", stream); err != nil {
		t.Fatalf("fresh import after sidecar removal: %v", err)
	}
	if err := runCtl(t, dst, "verify"); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestCLIRunsOnMemFilesystem: with fsys an in-memory filesystem, a source
// image takes a write and a snapshot and exports it, and a replica imports
// the stream. Every image, stream and sidecar access goes through fsys: the
// directory the paths name stays empty on disk, and the committed import
// leaves its generation manifest and no journal in the Mem replica.
func TestCLIRunsOnMemFilesystem(t *testing.T) {
	mem := vfs.NewMem()
	old := fsys
	fsys = mem
	defer func() { fsys = old }()
	dir := t.TempDir()
	src := filepath.Join(dir, "src.img")
	dst := filepath.Join(dir, "dst.img")
	stream := filepath.Join(dir, "stream.bin")
	for _, step := range [][]string{
		{src, "init", "-megabytes", "8"},
		{src, "write", "-lba", "3", "-text", "v1"},
		{src, "snap-create"},
		{src, "export", "-id", "1", "-out", stream},
		{dst, "init", "-megabytes", "8"},
		{dst, "import", "-in", stream},
		{dst, "verify"},
	} {
		if err := runCtl(t, step[0], step[1:]...); err != nil {
			t.Fatalf("%s on %s: %v", step[1], filepath.Base(step[0]), err)
		}
	}
	if mem.Exists(journalPath(dst)) {
		t.Error("the committed import left its journal in the replica")
	}
	if !mem.Exists(genPath(dst)) {
		t.Error("the committed import wrote no generation manifest")
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("the run touched disk: %d entries in %s (%v)", len(ents), dir, err)
	}
}

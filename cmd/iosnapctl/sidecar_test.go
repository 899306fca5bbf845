package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"iosnap/internal/iosnap"
	"iosnap/internal/vfs"
	"iosnap/internal/xport"
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

// nextGeneration writes a second generation on src — one sector changed,
// one added — takes snapshot 2 and exports its full image to a stream
// beside src, returning the stream's path.
func nextGeneration(t *testing.T, src string) string {
	t.Helper()
	stream := src + ".s2"
	for _, step := range [][]string{
		{"write", "-lba", "2", "-text", "v2-2"},
		{"write", "-lba", "9", "-text", "v2-9"},
		{"snap-create"},
		{"export", "-id", "2", "-out", stream},
	} {
		if err := runCtl(t, src, step...); err != nil {
			t.Fatalf("%s: %v", step[0], err)
		}
	}
	return stream
}

// verifyIfGenerated verifies the replica against its generation manifest,
// when it has one: a manifest present must describe the image beside it.
func verifyIfGenerated(t *testing.T, dst string) {
	t.Helper()
	if _, err := os.Stat(genPath(dst)); err == nil {
		if err := runCtl(t, dst, "verify"); err != nil {
			t.Fatalf("the generation left beside the image does not describe it: %v", err)
		}
	}
}

// TestCLIImportPersistFailureAborts: a generation manifest that cannot be
// written fails the import with that error, and what the failed import
// leaves is a replica whose manifest, if any, describes its image. With
// the fault cleared the import commits.
func TestCLIImportPersistFailureAborts(t *testing.T) {
	src, dst, stream := replicaFixture(t)
	if err := runCtl(t, dst, "import", "-in", stream); err != nil {
		t.Fatal(err)
	}
	stream2 := nextGeneration(t, src)

	boom := errors.New("injected sidecar write failure")
	ff := &failFS{FileSystem: fsys, match: ".gen", err: boom}
	old := fsys
	fsys = ff
	err := runCtl(t, dst, "import", "-in", stream2)
	fsys = old
	if !errors.Is(err, boom) {
		t.Fatalf("import with failing generation write returned %v, want the write error", err)
	}
	if ff.fired == 0 {
		t.Fatal("fault never fired — the test exercised nothing")
	}
	verifyIfGenerated(t, dst)
	if err := runCtl(t, dst, "import", "-in", stream2); err != nil {
		t.Fatalf("import after fault cleared: %v", err)
	}
	if err := runCtl(t, dst, "verify"); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestCLIReplicatePersistFailureAborts: same contract for the replicate
// verb's generation manifest.
func TestCLIReplicatePersistFailureAborts(t *testing.T) {
	src, dst, _ := replicaFixture(t)
	if err := runCtl(t, src, "replicate", "-id", "1", "-dst", dst); err != nil {
		t.Fatal(err)
	}
	nextGeneration(t, src)

	boom := errors.New("injected sidecar write failure")
	ff := &failFS{FileSystem: fsys, match: ".gen", err: boom}
	old := fsys
	fsys = ff
	err := runCtl(t, src, "replicate", "-id", "2", "-base", "1", "-dst", dst)
	fsys = old
	if !errors.Is(err, boom) {
		t.Fatalf("replicate with failing generation write returned %v, want the write error", err)
	}
	if ff.fired == 0 {
		t.Fatal("fault never fired")
	}
	verifyIfGenerated(t, dst)
	if err := runCtl(t, src, "replicate", "-id", "2", "-dst", dst); err != nil {
		t.Fatalf("replicate after fault cleared: %v", err)
	}
	if err := runCtl(t, dst, "verify"); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

// TestCLIFailedImportLeavesReplica: an import that fails after its
// validation pass — here a deduplicated sector whose local content was
// tampered with — names the sector and writes nothing: image and generation
// manifest keep their bytes. No re-send of that stream can repair it, so the
// error is not one a retry loop retries.
func TestCLIFailedImportLeavesReplica(t *testing.T) {
	src, dst, stream := replicaFixture(t)
	if err := runCtl(t, dst, "import", "-in", stream); err != nil {
		t.Fatal(err)
	}
	stream2 := filepath.Join(filepath.Dir(src), "dedup.bin")
	for _, step := range [][]string{
		{src, "write", "-lba", "2", "-text", "v2-2"},
		{src, "snap-create"},
		{src, "export", "-id", "2", "-basegen", genPath(dst), "-out", stream2},
		{dst, "write", "-lba", "3", "-text", "tampered"},
	} {
		if err := runCtl(t, step[0], step[1:]...); err != nil {
			t.Fatalf("%s: %v", step[1], err)
		}
	}
	read := func() (img, gen []byte) {
		img, err := os.ReadFile(dst)
		if err != nil {
			t.Fatal(err)
		}
		if gen, err = os.ReadFile(genPath(dst)); err != nil {
			t.Fatal(err)
		}
		return img, gen
	}
	img, gen := read()
	err := runCtl(t, dst, "import", "-in", stream2)
	if !errors.Is(err, iosnap.ErrReplicaDiverged) || xport.Retryable(err) || !strings.Contains(err.Error(), "LBA 3") {
		t.Fatalf("import over tampered dedup content returned %v, want ErrReplicaDiverged naming LBA 3, not retryable", err)
	}
	img2, gen2 := read()
	if !bytes.Equal(img, img2) || !bytes.Equal(gen, gen2) {
		t.Fatalf("the failed import rewrote the replica (image same %v, generation same %v)",
			bytes.Equal(img, img2), bytes.Equal(gen, gen2))
	}
}

// TestCLIReplicateRepairsDivergedReplica: a replica whose copy of a sector
// was changed behind its generation manifest takes the next replicate. Its
// first attempt dedups that sector and is refused; the next exports the
// snapshot again without dedup and ships it, and the replica verifies.
func TestCLIReplicateRepairsDivergedReplica(t *testing.T) {
	mem := vfs.NewMem()
	old := fsys
	fsys = mem
	defer func() { fsys = old }()
	const src, dst = "src.img", "dst.img"
	for _, step := range [][]string{
		{src, "init", "-megabytes", "8"},
		{dst, "init", "-megabytes", "8"},
		{src, "write", "-lba", "0", "-text", "v-0"},
		{src, "write", "-lba", "1", "-text", "v-1"},
		{src, "write", "-lba", "2", "-text", "v-2"},
		{src, "write", "-lba", "3", "-text", "v-3"},
		{src, "snap-create"},
		{src, "replicate", "-id", "1", "-dst", dst},
		{dst, "write", "-lba", "3", "-text", "tampered"},
		{src, "write", "-lba", "2", "-text", "v2-2"},
		{src, "snap-create"},
		{src, "replicate", "-id", "2", "-dst", dst},
		{dst, "verify"},
	} {
		if err := runCtl(t, step[0], step[1:]...); err != nil {
			t.Fatalf("%s on %s: %v", strings.Join(step[1:], " "), step[0], err)
		}
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

	// A missing sidecar (the fresh-replica case) still proceeds.
	if err := os.Remove(dst + ".gen"); err != nil {
		t.Fatal(err)
	}
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
// leaves its generation manifest in the Mem replica.
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
	if !mem.Exists(genPath(dst)) {
		t.Error("the committed import wrote no generation manifest")
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("the run touched disk: %d entries in %s (%v)", len(ents), dir, err)
	}
}

package main

import (
	"errors"
	"maps"
	"testing"

	"iosnap/internal/vfs"
	"iosnap/internal/xport"
)

// The replica crash sweep: a verb that changes a replica fails one
// filesystem operation and the power goes. Whatever survives must be a
// replica whose generation manifest, when present, describes its image;
// and running the verb again — or, when the manifest is gone and the verb
// refuses a delta, its full form — must commit a replica that verifies.

const (
	crashSrc   = "r/src.img"
	crashDst   = "r/dst.img"
	crashGen1  = "r/gen1.bin"  // snapshot 1's full image: two sectors
	crashDelta = "r/delta.bin" // snapshot 2 against generation 1
	crashFull  = "r/full.bin"  // snapshot 2's full image: three sectors
)

// crashFixture builds, on an in-memory filesystem, a source holding
// snapshots 1 and 2 (one sector changed, one added), their streams, and a
// replica holding generation 1. It returns those files by name, and the
// replica image as init left it.
func crashFixture(t *testing.T) (files map[string][]byte, fresh []byte) {
	t.Helper()
	mem := vfs.NewMem()
	fsys = mem
	for _, step := range [][]string{
		{crashSrc, "init", "-megabytes", "8"},
		{crashDst, "init", "-megabytes", "8"},
		{crashSrc, "write", "-lba", "0", "-text", "g1-0"},
		{crashSrc, "write", "-lba", "3", "-text", "g1-3"},
		{crashSrc, "snap-create"},
		{crashSrc, "export", "-id", "1", "-out", crashGen1},
		{crashDst, "import", "-in", crashGen1},
		{crashSrc, "write", "-lba", "0", "-text", "g2-0"},
		{crashSrc, "write", "-lba", "5", "-text", "g2-5"},
		{crashSrc, "snap-create"},
		{crashSrc, "export", "-id", "2", "-base", "1", "-basegen", genPath(crashDst), "-out", crashDelta},
		{crashSrc, "export", "-id", "2", "-out", crashFull},
	} {
		if err := runCtl(t, step[0], step[1:]...); err != nil {
			t.Fatalf("fixture: %s on %s: %v", step[1], step[0], err)
		}
		if step[0] == crashDst && step[1] == "init" {
			fresh = readMem(t, mem, crashDst)
		}
	}
	files = make(map[string][]byte)
	for _, name := range []string{crashSrc, crashDst, genPath(crashDst), crashGen1, crashDelta, crashFull} {
		files[name] = readMem(t, mem, name)
	}
	return files, fresh
}

func readMem(t *testing.T, mem *vfs.Mem, name string) []byte {
	t.Helper()
	b, err := vfs.ReadFile(mem, name)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// memWith returns a fresh in-memory filesystem holding files, durably.
func memWith(t *testing.T, files map[string][]byte) *vfs.Mem {
	t.Helper()
	mem := vfs.NewMem()
	for name, b := range files {
		if err := vfs.WriteFileAtomic(mem, name, b); err != nil {
			t.Fatal(err)
		}
	}
	return mem
}

var errInjected = errors.New("injected filesystem fault")

// crashRun runs verb on a copy of files with the filesystem operation
// fail picks failing, then crashes and checks what survived: a manifest
// present must verify, and the verb run again (its full form, when the
// manifest is gone and the delta is refused) must commit a replica that
// verifies. It reports whether the fault fired.
func crashRun(t *testing.T, files map[string][]byte, verb, full []string, fail func(n int, op vfs.Op, name string) bool) bool {
	t.Helper()
	mem := memWith(t, files)
	fsys = mem
	n, fired := 0, false
	mem.FailOp = func(op vfs.Op, name string) error {
		n++
		if fail(n, op, name) {
			fired = true
			return errInjected
		}
		return nil
	}
	verbErr := runCtl(t, verb[0], verb[1:]...)
	mem.FailOp = nil
	if !fired {
		if verbErr != nil {
			t.Fatalf("%v with no fault: %v", verb[1:], verbErr)
		}
		return false
	}
	mem.Crash()
	if mem.Exists(genPath(crashDst)) {
		if err := runCtl(t, crashDst, "verify"); err != nil {
			t.Fatalf("failed op %d (verb: %v), crash: the surviving generation does not describe the image: %v", n, verbErr, err)
		}
	}
	if verbErr == nil {
		// The fault hit an operation whose failure the verb may ignore (a
		// read handle's close); its commit must have been durable.
		if !mem.Exists(genPath(crashDst)) {
			t.Fatalf("failed op %d: the verb succeeded, and its generation did not survive the crash", n)
		}
		return true
	}
	if err := runCtl(t, verb[0], verb[1:]...); err != nil {
		if mem.Exists(genPath(crashDst)) || !errors.Is(err, xport.ErrBaseMismatch) {
			t.Fatalf("re-run after the crash: %v", err)
		}
		if err := runCtl(t, full[0], full[1:]...); err != nil {
			t.Fatalf("full repair after the crash: %v", err)
		}
	}
	if err := runCtl(t, crashDst, "verify"); err != nil {
		t.Fatalf("the replica committed after the crash does not verify: %v", err)
	}
	return true
}

func TestCLIReplicaCrashSweep(t *testing.T) {
	old := fsys
	defer func() { fsys = old }()
	gen1, fresh := crashFixture(t)
	for _, tc := range []struct {
		name       string
		verb, full []string
	}{
		{"import", []string{crashDst, "import", "-in", crashDelta}, []string{crashDst, "import", "-in", crashFull}},
		{"replicate", []string{crashSrc, "replicate", "-id", "2", "-base", "1", "-dst", crashDst},
			[]string{crashSrc, "replicate", "-id", "2", "-dst", crashDst}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := 1
			for crashRun(t, gen1, tc.verb, tc.full, func(n int, _ vfs.Op, _ string) bool { return n == k }) {
				k++
			}
			t.Logf("%d crash points", k-1)
			if k < 10 {
				t.Fatalf("the verb ran out of filesystem operations after %d: the sweep exercised nothing", k-1)
			}
		})
	}

	// A full disk: saving the image a fresh replica imported fails.
	// Running the import again must still apply every sector.
	t.Run("disk-full", func(t *testing.T) {
		files := maps.Clone(gen1)
		files[crashDst] = fresh
		delete(files, genPath(crashDst))
		imp := []string{crashDst, "import", "-in", crashGen1}
		if !crashRun(t, files, imp, imp, func(_ int, op vfs.Op, name string) bool {
			return op == vfs.OpCreate && name == crashDst+".tmp"
		}) {
			t.Fatal("the import never created its temporary image")
		}
	})
}

package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain doubles as a re-exec shim: when IOSNAPCTL_ARGS is set, the test
// binary behaves exactly like iosnapctl's main — same error printing, same
// exit code — so tests can assert the process-level contract (non-zero exit
// on invariant violations and failed runs). Args are joined with an ASCII
// unit separator, since TempDir paths may contain spaces.
func TestMain(m *testing.M) {
	if argv := os.Getenv("IOSNAPCTL_ARGS"); argv != "" {
		if err := run(strings.Split(argv, "\x1f")); err != nil {
			fmt.Fprintln(os.Stderr, "iosnapctl:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// execCtl re-executes the test binary as iosnapctl and returns its exit code.
func execCtl(t *testing.T, args ...string) int {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "IOSNAPCTL_ARGS="+strings.Join(args, "\x1f"))
	out, err := cmd.CombinedOutput()
	if err == nil {
		return 0
	}
	var ee *exec.ExitError
	if !errors.As(err, &ee) {
		t.Fatalf("re-exec: %v (output %q)", err, out)
	}
	return ee.ExitCode()
}

// runCtl invokes the CLI entry point with the given image and args.
func runCtl(t *testing.T, image string, args ...string) error {
	t.Helper()
	return run(append([]string{"-image", image}, args...))
}

func TestCLILifecycle(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "dev.img")

	if err := runCtl(t, img, "init", "-megabytes", "8"); err != nil {
		t.Fatalf("init: %v", err)
	}
	if err := runCtl(t, img, "write", "-lba", "0", "-text", "v1"); err != nil {
		t.Fatalf("write: %v", err)
	}
	if err := runCtl(t, img, "snap-create"); err != nil {
		t.Fatalf("snap-create: %v", err)
	}
	if err := runCtl(t, img, "write", "-lba", "0", "-text", "v2"); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	if err := runCtl(t, img, "read", "-lba", "0"); err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := runCtl(t, img, "snap-read", "-id", "1", "-lba", "0"); err != nil {
		t.Fatalf("snap-read: %v", err)
	}
	if err := runCtl(t, img, "snap-list"); err != nil {
		t.Fatalf("snap-list: %v", err)
	}
	if err := runCtl(t, img, "stats"); err != nil {
		t.Fatalf("stats: %v", err)
	}
	if err := runCtl(t, img, "trim", "-lba", "0", "-count", "1"); err != nil {
		t.Fatalf("trim: %v", err)
	}
	if err := runCtl(t, img, "snap-delete", "-id", "1"); err != nil {
		t.Fatalf("snap-delete: %v", err)
	}
	// Deleting again must fail.
	if err := runCtl(t, img, "snap-delete", "-id", "1"); err == nil {
		t.Fatal("double delete accepted")
	}
}

// TestCLIStateSurvivesReload verifies that the data written in one
// invocation is visible in the next (recovery from the image's log).
func TestCLIStateSurvivesReload(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "dev.img")
	if err := runCtl(t, img, "init", "-megabytes", "8"); err != nil {
		t.Fatal(err)
	}
	if err := runCtl(t, img, "write", "-lba", "7", "-text", "persistent"); err != nil {
		t.Fatal(err)
	}
	// Fresh load + recover, then verify through the package API (the CLI
	// prints to stdout; we check state directly).
	dev, f, err := load(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	_ = dev
	buf := make([]byte, f.SectorSize())
	if _, err := f.Read(0, 7, buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(buf), "persistent") {
		t.Fatalf("state lost: %q", string(buf[:16]))
	}
}

// TestCLITailBoundedReload verifies that a mutating verb checkpoints on
// save, so the next invocation mounts tail-bounded instead of full-scanning
// the log — and that the checkpointed state is the state written.
func TestCLITailBoundedReload(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "dev.img")
	if err := runCtl(t, img, "init", "-megabytes", "8"); err != nil {
		t.Fatal(err)
	}
	if err := runCtl(t, img, "write", "-lba", "1", "-text", "ckpt"); err != nil {
		t.Fatal(err)
	}
	_, f, err := load(img, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if !st.RecoveryTailBounded {
		t.Fatalf("reload after write did not mount tail-bounded (%d segments scanned, %d fallbacks)",
			st.RecoverySegsScanned, st.RecoveryFallbacks)
	}
	buf := make([]byte, f.SectorSize())
	if _, err := f.Read(0, 1, buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(buf), "ckpt") {
		t.Fatalf("state lost: %q", string(buf[:8]))
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	ferr := fn()
	w.Close()
	os.Stdout = old
	out, rerr := io.ReadAll(r)
	r.Close()
	if rerr != nil {
		t.Fatal(rerr)
	}
	if ferr != nil {
		t.Fatalf("captured command failed: %v (output %q)", ferr, out)
	}
	return string(out)
}

// TestCLIMapCacheStats mounts the image with a bounded translation-page
// cache (-mapcache), drives enough traffic to fault and flush pages, and
// asserts the stats verb reports the resident split and the cache
// counters. It then remounts in tree mode: a GTD checkpoint written by the
// paged mount must degrade to the full-scan fallback, not break the image.
func TestCLIMapCacheStats(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "dev.img")
	if err := runCtl(t, img, "init", "-megabytes", "8"); err != nil {
		t.Fatal(err)
	}
	// Five sectors 256 LBAs apart span three translation pages (512 slots
	// at 4K sectors), mounted with a 2-page cache: faults, evictions,
	// flushes.
	for lba := int64(0); lba < 5*256; lba += 256 {
		if err := run([]string{"-image", img, "-mapcache", "2", "write",
			"-lba", fmt.Sprint(lba), "-text", "mc"}); err != nil {
			t.Fatal(err)
		}
	}
	// Counters are per-mount, so fault pages in-process and print through
	// the same code path the verb uses.
	_, f, err := load(img, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, f.SectorSize())
	for lba := int64(0); lba < 5*256; lba += 256 {
		if _, err := f.Read(0, lba, buf); err != nil {
			t.Fatalf("read lba %d: %v", lba, err)
		}
	}
	out := captureStdout(t, func() error { return cmdStats(f) })
	if !strings.Contains(out, "B resident)") {
		t.Fatalf("stats output missing resident map split:\n%s", out)
	}
	var hits, misses, evictions, flushed int64
	found := false
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "map cache:") {
			if _, err := fmt.Sscanf(line, "map cache: %d hits, %d misses, %d evictions, %d pages flushed",
				&hits, &misses, &evictions, &flushed); err != nil {
				t.Fatalf("unparseable map cache line %q: %v", line, err)
			}
			found = true
		}
	}
	if !found {
		t.Fatalf("stats output missing map cache line:\n%s", out)
	}
	if misses == 0 || evictions == 0 {
		t.Fatalf("5 stride reads through a 2-page cache faulted misses=%d evictions=%d:\n%s",
			misses, evictions, out)
	}
	_ = hits

	// Tree-mode remount of a paged checkpoint: full-scan fallback, data
	// intact, and the cache counters read zero.
	out = captureStdout(t, func() error {
		return run([]string{"-image", img, "stats"})
	})
	if !strings.Contains(out, "map cache:          0 hits, 0 misses, 0 evictions, 0 pages flushed") {
		t.Fatalf("tree-mode stats should report an idle cache:\n%s", out)
	}
	if err := runCtl(t, img, "read", "-lba", "0"); err != nil {
		t.Fatalf("tree-mode read after paged checkpoint: %v", err)
	}
	if err := run([]string{"-image", img, "-mapcache", "2", "check"}); err != nil {
		t.Fatalf("check under bounded cache: %v", err)
	}
}

// TestCLINegativeMapCacheRefused: the map is a tree or a bounded paged map;
// a negative -mapcache is refused by the configuration check and the
// process exits non-zero.
func TestCLINegativeMapCacheRefused(t *testing.T) {
	img := filepath.Join(t.TempDir(), "dev.img")
	if err := runCtl(t, img, "init", "-megabytes", "8"); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-image", img, "-mapcache", "-1", "stats"})
	if err == nil || !strings.Contains(err.Error(), "MapCachePages -1") {
		t.Fatalf("-mapcache -1 stats: got %v, want the MapCachePages refusal", err)
	}
	if testing.Short() {
		return
	}
	if code := execCtl(t, "-image", img, "-mapcache", "-1", "stats"); code == 0 {
		t.Fatal("-mapcache -1 stats exited 0")
	}
}

// TestCLIMapCacheSmallSectorRefused: a sector too small for a translation
// page refuses -mapcache with an error, where it used to panic.
func TestCLIMapCacheSmallSectorRefused(t *testing.T) {
	img := filepath.Join(t.TempDir(), "dev.img")
	if err := runCtl(t, img, "init", "-megabytes", "8", "-sector", "16"); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-image", img, "-mapcache", "4", "stats"})
	if err == nil || !strings.Contains(err.Error(), "MapCachePages 4") {
		t.Fatalf("-mapcache 4 stats on 16-byte sectors: got %v, want the MapCachePages refusal", err)
	}
	if err := runCtl(t, img, "stats"); err != nil {
		t.Fatalf("stats without -mapcache: %v", err)
	}
}

// TestCLICheck exercises the invariant checker verb on a populated image.
func TestCLICheck(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "dev.img")
	if err := runCtl(t, img, "init", "-megabytes", "8"); err != nil {
		t.Fatal(err)
	}
	if err := runCtl(t, img, "check"); err != nil {
		t.Fatalf("check on fresh image: %v", err)
	}
	if err := runCtl(t, img, "write", "-lba", "3", "-text", "hello", "-count", "2"); err != nil {
		t.Fatal(err)
	}
	if err := runCtl(t, img, "snap-create"); err != nil {
		t.Fatal(err)
	}
	if err := runCtl(t, img, "write", "-lba", "3", "-text", "hello2"); err != nil {
		t.Fatal(err)
	}
	if err := runCtl(t, img, "check"); err != nil {
		t.Fatalf("check after writes+snapshot: %v", err)
	}
}

// TestCLIFaultDemo runs each canned fault plan end to end; the harness
// errors on any real bug (invariant violation, wrong content without an
// error), so success here is a meaningful assertion, not just smoke.
func TestCLIFaultDemo(t *testing.T) {
	for _, plan := range []string{"gc-copy", "torn-note", "crash-scan", "random", "transient", "wear-out", "none"} {
		if err := run([]string{"faultdemo", "-plan", plan, "-seed", "3", "-steps", "400"}); err != nil {
			t.Fatalf("faultdemo -plan %s: %v", plan, err)
		}
	}
	if err := run([]string{"faultdemo", "-plan", "bogus"}); err == nil {
		t.Fatal("unknown fault plan accepted")
	}
	// -prob 0 used to fire every rule on its first match, -prob 5 on every
	// match and -prob -1 never; -steps 0 and -5 ran 800 steps.
	for _, tc := range []struct{ flag, value string }{
		{"-prob", "0"}, {"-prob", "-1"}, {"-prob", "5"}, {"-prob", "NaN"},
		{"-steps", "0"}, {"-steps", "-5"},
	} {
		err := run([]string{"faultdemo", "-plan", "random", tc.flag, tc.value})
		if err == nil || !strings.Contains(err.Error(), tc.flag+" ") {
			t.Errorf("faultdemo %s %s: got %v, want an error naming %s", tc.flag, tc.value, err, tc.flag)
		}
	}
	if err := run([]string{"faultdemo", "-plan", "random", "-prob", "1", "-steps", "1"}); err != nil {
		t.Fatalf("faultdemo -prob 1 -steps 1: %v", err)
	}
}

// TestCLIHealth exercises the health verb on a populated image.
func TestCLIHealth(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "dev.img")
	if err := runCtl(t, img, "init", "-megabytes", "8"); err != nil {
		t.Fatal(err)
	}
	if err := runCtl(t, img, "write", "-lba", "0", "-text", "x", "-count", "4"); err != nil {
		t.Fatal(err)
	}
	if err := runCtl(t, img, "health"); err != nil {
		t.Fatalf("health: %v", err)
	}
}

// TestCLIExitCodes asserts the process-level contract: check and faultdemo
// exit non-zero when they find a problem and zero when the run is clean.
func TestCLIExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec test skipped in short mode")
	}
	dir := t.TempDir()
	img := filepath.Join(dir, "dev.img")
	if code := execCtl(t, "-image", img, "init", "-megabytes", "8"); code != 0 {
		t.Fatalf("init exited %d", code)
	}
	if code := execCtl(t, "-image", img, "check"); code != 0 {
		t.Fatalf("check on healthy image exited %d", code)
	}
	if code := execCtl(t, "-image", img, "health"); code != 0 {
		t.Fatalf("health exited %d", code)
	}
	bad := filepath.Join(dir, "bad.img")
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := execCtl(t, "-image", bad, "check"); code == 0 {
		t.Fatal("check on corrupt image exited 0")
	}
	if code := execCtl(t, "faultdemo", "-plan", "wear-out", "-seed", "3", "-steps", "400"); code != 0 {
		t.Fatalf("faultdemo wear-out exited %d", code)
	}
	if code := execCtl(t, "faultdemo", "-plan", "bogus"); code == 0 {
		t.Fatal("faultdemo with unknown plan exited 0")
	}
}

func TestCLIErrors(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "dev.img")
	if err := run([]string{}); err == nil {
		t.Fatal("no args accepted")
	}
	if err := run([]string{"-image", img}); err == nil {
		t.Fatal("missing command accepted")
	}
	if err := runCtl(t, img, "bogus"); err == nil {
		t.Fatal("unknown command accepted")
	}
	if err := runCtl(t, filepath.Join(dir, "missing.img"), "stats"); err == nil {
		t.Fatal("missing image accepted")
	}
	// Corrupt image.
	bad := filepath.Join(dir, "bad.img")
	if err := os.WriteFile(bad, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runCtl(t, bad, "stats"); err == nil {
		t.Fatal("corrupt image accepted")
	}
	// A -count outside [1, device sectors] is refused before a buffer is
	// sized from it.
	if err := runCtl(t, img, "init", "-megabytes", "8"); err != nil {
		t.Fatal(err)
	}
	if err := runCtl(t, img, "snap-create"); err != nil {
		t.Fatal(err)
	}
	for _, verb := range [][]string{
		{"write", "-lba", "0", "-text", "x"},
		{"read", "-lba", "0"},
		{"snap-read", "-id", "1", "-lba", "0"},
	} {
		for _, count := range []string{"-3", "9223372036854775807"} {
			err := runCtl(t, img, append(verb, "-count", count)...)
			if err == nil || !strings.Contains(err.Error(), "-count") {
				t.Errorf("%s -count %s: %v", verb[0], count, err)
			}
		}
	}
}

// TestCLIWriteRefusesTextPastCount: -text longer than -count sectors is a
// usage error naming -count, and the LBA keeps what it held; text that
// fills the sectors exactly is written whole.
func TestCLIWriteRefusesTextPastCount(t *testing.T) {
	img := filepath.Join(t.TempDir(), "dev.img")
	if err := runCtl(t, img, "init", "-megabytes", "8", "-sector", "512"); err != nil {
		t.Fatal(err)
	}
	if err := runCtl(t, img, "write", "-lba", "3", "-text", "old"); err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("x", 2000)
	for _, count := range []string{"1", "3"} {
		err := runCtl(t, img, "write", "-lba", "3", "-text", long, "-count", count)
		if err == nil || !strings.Contains(err.Error(), "-count") {
			t.Fatalf("write of 2000 bytes with -count %s: %v, want a usage error naming -count", count, err)
		}
	}
	out := captureStdout(t, func() error { return runCtl(t, img, "read", "-lba", "3") })
	if !strings.Contains(out, `"old"`) {
		t.Fatalf("a refused write changed LBA 3: %q", out)
	}
	exact := strings.Repeat("y", 1024)
	if err := runCtl(t, img, "write", "-lba", "3", "-text", exact, "-count", "2"); err != nil {
		t.Fatalf("write of exactly -count sectors: %v", err)
	}
	out = captureStdout(t, func() error { return runCtl(t, img, "read", "-lba", "3", "-count", "2") })
	if strings.Count(out, strings.Repeat("y", 512)) != 2 {
		t.Fatalf("a full two-sector write read back as %q", out)
	}
}

// TestCLIInitRefusesZeroSector: init with -sector 0 is an error naming the
// flag, not a divide by zero while formatting, and writes no image.
func TestCLIInitRefusesZeroSector(t *testing.T) {
	img := filepath.Join(t.TempDir(), "dev.img")
	if err := runCtl(t, img, "init", "-sector", "0"); err == nil || !strings.Contains(err.Error(), "-sector 0") {
		t.Fatalf("init -sector 0: %v, want an error naming the flag", err)
	}
	if _, err := os.Stat(img); !os.IsNotExist(err) {
		t.Fatalf("init -sector 0 left an image behind (%v)", err)
	}
}

func TestCLIInitOverwritesAtomically(t *testing.T) {
	dir := t.TempDir()
	img := filepath.Join(dir, "dev.img")
	if err := runCtl(t, img, "init", "-megabytes", "8"); err != nil {
		t.Fatal(err)
	}
	info1, err := os.Stat(img)
	if err != nil {
		t.Fatal(err)
	}
	// Re-init produces a fresh, loadable image and leaves no temp file.
	if err := runCtl(t, img, "init", "-megabytes", "8"); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(img + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp image left behind")
	}
	if _, _, err := load(img, 0); err != nil {
		t.Fatal(err)
	}
	_ = info1
}

// TestCLIReplication drives the full replication workflow across image
// files: full replicate, incremental replicate, verify, and verify's
// non-zero exit once the replica is tampered with.
func TestCLIReplication(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.img")
	dst := filepath.Join(dir, "dst.img")
	for _, img := range []string{src, dst} {
		if err := runCtl(t, img, "init", "-megabytes", "8"); err != nil {
			t.Fatalf("init %s: %v", img, err)
		}
	}
	for lba := 0; lba < 4; lba++ {
		if err := runCtl(t, src, "write", "-lba", fmt.Sprint(lba), "-text", fmt.Sprintf("gen1-%d", lba)); err != nil {
			t.Fatal(err)
		}
	}
	if err := runCtl(t, src, "snap-create"); err != nil { // snapshot 1
		t.Fatal(err)
	}
	if err := runCtl(t, src, "replicate", "-id", "1", "-dst", dst); err != nil {
		t.Fatalf("full replicate: %v", err)
	}
	if err := runCtl(t, dst, "verify"); err != nil {
		t.Fatalf("verify after full replicate: %v", err)
	}
	if _, err := os.Stat(dst + ".gen"); err != nil {
		t.Fatalf("generation manifest sidecar missing: %v", err)
	}

	// Generation 2: change one sector, add one, and replicate incrementally.
	if err := runCtl(t, src, "write", "-lba", "2", "-text", "gen2-2"); err != nil {
		t.Fatal(err)
	}
	if err := runCtl(t, src, "write", "-lba", "9", "-text", "gen2-9"); err != nil {
		t.Fatal(err)
	}
	if err := runCtl(t, src, "snap-create"); err != nil { // snapshot 2
		t.Fatal(err)
	}
	if err := runCtl(t, src, "replicate", "-id", "2", "-base", "1", "-dst", dst); err != nil {
		t.Fatalf("incremental replicate: %v", err)
	}
	if err := runCtl(t, dst, "verify"); err != nil {
		t.Fatalf("verify after incremental replicate: %v", err)
	}

	// Tamper with the replica: verify must exit non-zero (process contract).
	if err := runCtl(t, dst, "write", "-lba", "2", "-text", "tampered"); err != nil {
		t.Fatal(err)
	}
	if code := execCtl(t, "-image", dst, "verify"); code == 0 {
		t.Fatal("verify of a tampered replica exited 0")
	}
}

// TestCLIExportImport exercises the split export/import verbs, asserting
// process exit codes.
func TestCLIExportImport(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.img")
	dst := filepath.Join(dir, "dst.img")
	stream := filepath.Join(dir, "stream.bin")
	for _, img := range []string{src, dst} {
		if err := runCtl(t, img, "init", "-megabytes", "8"); err != nil {
			t.Fatal(err)
		}
	}
	for lba := 0; lba < 5; lba++ {
		if err := runCtl(t, src, "write", "-lba", fmt.Sprint(lba), "-text", fmt.Sprintf("v-%d", lba)); err != nil {
			t.Fatal(err)
		}
	}
	if err := runCtl(t, src, "snap-create"); err != nil {
		t.Fatal(err)
	}
	if err := runCtl(t, src, "export", "-id", "1", "-out", stream); err != nil {
		t.Fatalf("export: %v", err)
	}

	if code := execCtl(t, "-image", dst, "import", "-in", stream); code != 0 {
		t.Fatalf("import exited %d", code)
	}
	if err := runCtl(t, dst, "verify"); err != nil {
		t.Fatalf("verify after import: %v", err)
	}

	// A damaged stream is rejected with a non-zero exit and no state change.
	b, err := os.ReadFile(stream)
	if err != nil {
		t.Fatal(err)
	}
	truncated := filepath.Join(dir, "truncated.bin")
	if err := os.WriteFile(truncated, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	if code := execCtl(t, "-image", dst, "import", "-in", truncated); code == 0 {
		t.Fatal("truncated stream import exited 0")
	}
	// Incremental export demands the receiver's generation manifest.
	if code := execCtl(t, "-image", src, "export", "-id", "1", "-base", "1", "-out", stream); code == 0 {
		t.Fatal("export -base without -basegen exited 0")
	}
}

package main

import (
	"bytes"
	"net"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"iosnap/internal/srv"
	"iosnap/internal/vfs"
)

func testOpts(image string) options {
	return options{
		image:     image,
		addr:      "127.0.0.1:0",
		shards:    2,
		megabytes: 8,
		sector:    4096,
	}
}

// startDaemon runs serve in a goroutine and returns the bound address plus
// the channel its result lands on.
func startDaemon(t *testing.T, opt options, sig <-chan os.Signal) (string, chan error) {
	t.Helper()
	addrCh := make(chan net.Addr, 1)
	done := make(chan error, 1)
	go func() { done <- serve(opt, sig, func(a net.Addr) { addrCh <- a }) }()
	select {
	case a := <-addrCh:
		return a.String(), done
	case err := <-done:
		t.Fatalf("daemon exited before listening: %v", err)
		return "", nil
	}
}

// TestDaemonLifecycle: first start formats the shard images; data and a
// snapshot written over the wire survive a graceful shutdown and are
// served again by the next start.
func TestDaemonLifecycle(t *testing.T) {
	img := filepath.Join(t.TempDir(), "dev.img")
	opt := testOpts(img)

	addr, done := startDaemon(t, opt, nil)
	c, err := srv.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Shards != 2 {
		t.Fatalf("stats: %+v", st)
	}
	want := bytes.Repeat([]byte("durable!"), st.SectorSize/8)
	if err := c.Write(5, want); err != nil {
		t.Fatal(err)
	}
	snapID, err := c.SnapCreate()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(5, bytes.Repeat([]byte("newer..."), st.SectorSize/8)); err != nil {
		t.Fatal(err)
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("first run: %v", err)
	}
	c.Close()
	for i := 0; i < opt.shards; i++ {
		if _, err := os.Stat(shardPath(img, i)); err != nil {
			t.Fatalf("shard image %d missing after shutdown: %v", i, err)
		}
		if _, err := os.Stat(shardPath(img, i) + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("shard %d temp file left behind", i)
		}
	}

	// Second start: mounts the saved images.
	addr, done = startDaemon(t, opt, nil)
	c, err = srv.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(got), "newer...") {
		t.Fatalf("live data lost across restart: %q", got[:16])
	}
	// The snapshot survives too: its frozen image still reads the old data.
	sgot, err := c.SnapRead(snapID, 5, 1)
	if err != nil {
		t.Fatalf("snapshot %d lost across restart: %v", snapID, err)
	}
	if !bytes.Equal(sgot, want) {
		t.Fatalf("snapshot content changed across restart: %q", sgot[:16])
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("second run: %v", err)
	}
	c.Close()
}

// TestDaemonSignalShutdown: SIGTERM takes the same graceful path as the
// shutdown op.
func TestDaemonSignalShutdown(t *testing.T) {
	img := filepath.Join(t.TempDir(), "dev.img")
	sig := make(chan os.Signal, 1)
	addr, done := startDaemon(t, testOpts(img), sig)
	c, err := srv.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ping(); err != nil {
		t.Fatal(err)
	}
	sig <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatalf("signal shutdown: %v", err)
	}
	c.Close()
	if _, err := os.Stat(shardPath(img, 0)); err != nil {
		t.Fatalf("images not saved on signal shutdown: %v", err)
	}
}

// TestDaemonRefusesPartialDevice: some-but-not-all shard images present
// must refuse to mount rather than format over the survivors.
func TestDaemonRefusesPartialDevice(t *testing.T) {
	img := filepath.Join(t.TempDir(), "dev.img")
	if err := os.WriteFile(shardPath(img, 0), []byte("not empty"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := serve(testOpts(img), nil, nil)
	if err == nil || !strings.Contains(err.Error(), "partial device") {
		t.Fatalf("partial device: %v", err)
	}
}

// TestDaemonRefusesFewerShards: images made with 4 shards are refused by a
// start with -shards 2, which would serve half the device and leave the
// other half's images stale; the error names the first image left out.
func TestDaemonRefusesFewerShards(t *testing.T) {
	old := fsys
	fsys = vfs.NewMem()
	defer func() { fsys = old }()
	opt := testOpts("dev.img")
	opt.shards = 4
	if err := ensureImages(opt); err != nil {
		t.Fatal(err)
	}
	opt.shards = 2
	if err := ensureImages(opt); err == nil || !strings.Contains(err.Error(), shardPath(opt.image, 2)+" exists") {
		t.Fatalf("4 shard images started with -shards 2: %v, want an error naming %s", err, shardPath(opt.image, 2))
	}
}

// TestDaemonCrashAfterShutdownIsDurable runs the whole lifecycle against
// the in-memory filesystem, power-fails it after the daemon exits, and
// remounts: the atomic fsynced save must leave loadable images holding the
// written data.
func TestDaemonCrashAfterShutdownIsDurable(t *testing.T) {
	mem := vfs.NewMem()
	old := fsys
	fsys = mem
	defer func() { fsys = old }()

	opt := testOpts("crash/dev.img")
	addr, done := startDaemon(t, opt, nil)
	c, err := srv.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte("pwrfail!"), st.SectorSize/8)
	if err := c.Write(3, want); err != nil {
		t.Fatal(err)
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	c.Close()

	mem.Crash()

	addr, done = startDaemon(t, opt, nil)
	c, err = srv.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(3, 1)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("data lost to power failure after clean shutdown: %v", err)
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	c.Close()
}

// countingFS counts the files a FileSystem hands out and the closes of
// them.
type countingFS struct {
	vfs.FileSystem
	opened, closed int
}

func (c *countingFS) counted(f vfs.File, err error) (vfs.File, error) {
	if err != nil {
		return nil, err
	}
	c.opened++
	return &countedFile{File: f, fs: c}, nil
}

func (c *countingFS) Create(name string) (vfs.File, error) {
	return c.counted(c.FileSystem.Create(name))
}
func (c *countingFS) Open(name string) (vfs.File, error) { return c.counted(c.FileSystem.Open(name)) }

type countedFile struct {
	vfs.File
	fs *countingFS
}

func (f *countedFile) Close() error {
	f.fs.closed++
	return f.File.Close()
}

// TestDaemonClosesEveryFile: a start and a graceful shutdown close every
// file they open, the check for existing images included, whether the
// start formats the images or mounts them.
func TestDaemonClosesEveryFile(t *testing.T) {
	cfs := &countingFS{FileSystem: vfs.NewMem()}
	old := fsys
	fsys = cfs
	defer func() { fsys = old }()

	opt := testOpts("count/dev.img")
	for _, start := range []string{"formatting", "mounting"} {
		cfs.opened, cfs.closed = 0, 0
		addr, done := startDaemon(t, opt, nil)
		c, err := srv.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Shutdown(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		c.Close()
		if cfs.opened != cfs.closed {
			t.Errorf("%s start: %d files opened, %d closed", start, cfs.opened, cfs.closed)
		}
	}
}

// TestDaemonRefusesZeroSector: a first start with -sector 0 is an error
// naming the flag, not a divide by zero while formatting.
func TestDaemonRefusesZeroSector(t *testing.T) {
	img := filepath.Join(t.TempDir(), "dev.img")
	if err := run([]string{"-image", img, "-sector", "0"}); err == nil || !strings.Contains(err.Error(), "-sector 0") {
		t.Fatalf("-sector 0: %v, want an error naming the flag", err)
	}
}

func TestDaemonFlagErrors(t *testing.T) {
	if err := run([]string{}); err == nil {
		t.Fatal("missing -image accepted")
	}
	if err := run([]string{"-image", "x", "-shards", "0"}); err == nil {
		t.Fatal("zero shards accepted")
	}
	if err := run([]string{"-image", "x", "-viewttl", "-1ns"}); err == nil || !strings.Contains(err.Error(), "-viewttl") {
		t.Fatalf("negative -viewttl: %v, want a usage error", err)
	}
}

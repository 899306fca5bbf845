package main

import (
	"net"
	"strings"
	"testing"

	"iosnap/internal/iosnap"
	"iosnap/internal/nand"
	"iosnap/internal/shard"
	"iosnap/internal/sim"
	"iosnap/internal/srv"
)

// startTestServer brings up a sharded service behind a loopback server.
func startTestServer(t *testing.T) (addr string, shutdown func()) {
	t.Helper()
	nc := nand.DefaultConfig()
	nc.SectorSize = 512
	nc.PagesPerSegment = 32
	nc.Segments = 32
	nc.Channels = 4
	nc.StoreData = true
	base := iosnap.DefaultConfig(nc)
	base.UserSectors = 768
	base.GCWindow = 10 * sim.Millisecond
	base.BitmapPageBits = 64
	svc, err := shard.NewService(shard.Config{Base: base, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := srv.NewServer(svc, ln)
	served := make(chan error, 1)
	go func() { served <- s.Serve() }()
	return ln.Addr().String(), func() {
		s.Shutdown()
		<-served
		svc.Close()
	}
}

// TestCLIRemoteVerbs drives every -remote verb through the real CLI entry
// point against a live server.
func TestCLIRemoteVerbs(t *testing.T) {
	addr, shutdown := startTestServer(t)
	defer shutdown()

	remote := func(args ...string) error {
		return run(append([]string{"-remote", addr}, args...))
	}
	if err := remote("ping"); err != nil {
		t.Fatalf("ping: %v", err)
	}
	if err := remote("write", "-lba", "0", "-text", "gen1"); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := captureStdout(t, func() error { return remote("read", "-lba", "0") })
	if !strings.Contains(out, "gen1") {
		t.Fatalf("read output %q missing written text", out)
	}
	out = captureStdout(t, func() error { return remote("snap-create") })
	if !strings.Contains(out, "created snapshot 1") {
		t.Fatalf("snap-create output %q", out)
	}
	if err := remote("write", "-lba", "0", "-text", "gen2"); err != nil {
		t.Fatal(err)
	}
	// The snapshot still reads the frozen content; live reads the new.
	out = captureStdout(t, func() error { return remote("snap-read", "-id", "1", "-lba", "0") })
	if !strings.Contains(out, "gen1") {
		t.Fatalf("snap-read output %q missing frozen text", out)
	}
	out = captureStdout(t, func() error { return remote("read", "-lba", "0") })
	if !strings.Contains(out, "gen2") {
		t.Fatalf("read output %q missing live text", out)
	}
	out = captureStdout(t, func() error { return remote("stats") })
	if !strings.Contains(out, "shards:             2") || !strings.Contains(out, "snapshots (live):   1") {
		t.Fatalf("stats output:\n%s", out)
	}
	for _, verb := range [][]string{
		{"write", "-lba", "0", "-text", "x"},
		{"read", "-lba", "0"},
		{"snap-read", "-id", "1", "-lba", "0"},
	} {
		for _, count := range []string{"-3", "9223372036854775807"} {
			err := remote(append(verb, "-count", count)...)
			if err == nil || !strings.Contains(err.Error(), "-count") {
				t.Errorf("remote %s -count %s: %v", verb[0], count, err)
			}
		}
	}
	if err := remote("trim", "-lba", "0", "-count", "1"); err != nil {
		t.Fatalf("trim: %v", err)
	}
	if err := remote("snap-delete", "-id", "1"); err != nil {
		t.Fatalf("snap-delete: %v", err)
	}
	// Server-side failures surface as CLI errors.
	if err := remote("snap-read", "-id", "1", "-lba", "0"); err == nil {
		t.Fatal("snap-read of deleted snapshot succeeded")
	}
	if err := remote("read", "-lba", "100000"); err == nil {
		t.Fatal("out-of-range remote read succeeded")
	}
	// Verbs that need the local image are rejected in remote mode.
	if err := remote("export", "-id", "1", "-out", "/dev/null"); err == nil || !strings.Contains(err.Error(), "not available over -remote") {
		t.Fatalf("remote export: %v", err)
	}
}

// TestCLIRemoteShutdown: the shutdown verb stops the server; further
// connections are refused.
func TestCLIRemoteShutdown(t *testing.T) {
	addr, shutdown := startTestServer(t)
	defer shutdown() // idempotent; Serve already returned

	if err := run([]string{"-remote", addr, "shutdown"}); err != nil {
		t.Fatalf("shutdown verb: %v", err)
	}
	if err := run([]string{"-remote", addr, "ping"}); err == nil {
		t.Fatal("ping succeeded after shutdown")
	}
}

// TestCLIRemoteConnectError: an unreachable server is a clean error, not a
// hang or a panic.
func TestCLIRemoteConnectError(t *testing.T) {
	if err := run([]string{"-remote", "127.0.0.1:1", "ping"}); err == nil {
		t.Fatal("connecting to a dead address succeeded")
	}
}

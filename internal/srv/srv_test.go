package srv

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"iosnap/internal/iosnap"
	"iosnap/internal/nand"
	"iosnap/internal/shard"
	"iosnap/internal/sim"
)

func testNandConfig() nand.Config {
	nc := nand.DefaultConfig()
	nc.SectorSize = 512
	nc.PagesPerSegment = 32
	nc.Segments = 32
	nc.Channels = 4
	nc.StoreData = true
	nc.ReadLatency = 2 * sim.Microsecond
	nc.ProgramLatency = 4 * sim.Microsecond
	nc.EraseLatency = 50 * sim.Microsecond
	return nc
}

func testShardConfig(shards int) shard.Config {
	base := iosnap.DefaultConfig(testNandConfig())
	base.UserSectors = 768
	base.GCWindow = 10 * sim.Millisecond
	base.BitmapPageBits = 64
	base.CoWPageCost = 10 * sim.Microsecond
	return shard.Config{Base: base, Shards: shards}
}

// startServer brings up a service and a server on a loopback listener and
// returns the dial address plus the channel Serve's result lands on.
func startServer(t testing.TB, svc *shard.Service) (*Server, string, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(svc, ln)
	served := make(chan error, 1)
	go func() { served <- s.Serve() }()
	return s, ln.Addr().String(), served
}

func pattern(tag byte, sectors, ss int) []byte {
	b := make([]byte, sectors*ss)
	for i := range b {
		b[i] = tag ^ byte(i*7)
	}
	return b
}

// TestServerBasicOps drives every protocol op through one client and
// checks snapshot isolation end to end over the wire.
func TestServerBasicOps(t *testing.T) {
	svc, err := shard.NewService(testShardConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	s, addr, served := startServer(t, svc)
	defer func() { s.Shutdown(); <-served }()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}
	ss := svc.SectorSize()

	old := pattern('a', 8, ss)
	if err := c.Write(100, old); err != nil {
		t.Fatalf("write: %v", err)
	}
	got, err := c.Read(100, 8)
	if err != nil || !bytes.Equal(got, old) {
		t.Fatalf("read-back mismatch: %v", err)
	}

	id, err := c.SnapCreate()
	if err != nil {
		t.Fatalf("snap-create: %v", err)
	}
	niu := pattern('b', 8, ss)
	if err := c.Write(100, niu); err != nil {
		t.Fatal(err)
	}
	if got, err := c.Read(100, 8); err != nil || !bytes.Equal(got, niu) {
		t.Fatalf("live read after overwrite: %v", err)
	}
	if got, err := c.SnapRead(id, 100, 8); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("snapshot read: err=%v, isolation broken", err)
	}

	st, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	if st.Shards != 4 || st.LiveSnapshots != 1 || st.SectorSize != ss || st.Sectors != 768 {
		t.Fatalf("stats = %+v", st)
	}
	var writes int64
	for _, p := range st.PerShard {
		writes += p.UserWrites
	}
	if writes != 16 {
		t.Fatalf("aggregate UserWrites = %d, want 16", writes)
	}

	if err := c.Trim(100, 8); err != nil {
		t.Fatalf("trim: %v", err)
	}
	if err := c.SnapDelete(id); err != nil {
		t.Fatalf("snap-delete: %v", err)
	}
	if _, err := c.SnapRead(id, 100, 8); err == nil {
		t.Fatal("snap-read of deleted snapshot succeeded")
	}
}

// TestServerErrorsStayInBand: op failures are reported on the wire and do
// not poison the connection.
func TestServerErrorsStayInBand(t *testing.T) {
	svc, err := shard.NewService(testShardConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	s, addr, served := startServer(t, svc)
	defer func() { s.Shutdown(); <-served }()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Read(svc.Sectors(), 1); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range read: %v", err)
	}
	if err := c.Write(0, []byte("unaligned")); err == nil {
		t.Fatal("unaligned write accepted")
	}
	if _, err := c.SnapRead(99, 0, 1); err == nil {
		t.Fatal("snap-read of unknown snapshot accepted")
	}
	// The connection still works after every failure.
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after errors: %v", err)
	}
	if err := c.Write(0, pattern('x', 1, svc.SectorSize())); err != nil {
		t.Fatalf("write after errors: %v", err)
	}
}

// TestServerConcurrentClients is the -race leg: many client connections
// hammer disjoint LBA ranges while another takes and reads snapshots.
func TestServerConcurrentClients(t *testing.T) {
	svc, err := shard.NewService(testShardConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	s, addr, served := startServer(t, svc)
	defer func() { s.Shutdown(); <-served }()

	const clients = 6
	const rounds = 20
	const run = 8 // sectors per client
	ss := svc.SectorSize()

	var wg sync.WaitGroup
	errs := make(chan error, clients+1)
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			base := int64(ci * run)
			for r := 0; r < rounds; r++ {
				want := pattern(byte(ci*31+r), run, ss)
				if err := c.Write(base, want); err != nil {
					errs <- fmt.Errorf("client %d round %d write: %w", ci, r, err)
					return
				}
				got, err := c.Read(base, run)
				if err != nil || !bytes.Equal(got, want) {
					errs <- fmt.Errorf("client %d round %d read-back mismatch: %v", ci, r, err)
					return
				}
			}
		}(ci)
	}
	// Snapshot client: create, read a little, delete, repeatedly.
	wg.Add(1)
	go func() {
		defer wg.Done()
		c, err := Dial(addr)
		if err != nil {
			errs <- err
			return
		}
		defer c.Close()
		for r := 0; r < rounds/2; r++ {
			id, err := c.SnapCreate()
			if err != nil {
				errs <- fmt.Errorf("snap round %d create: %w", r, err)
				return
			}
			if _, err := c.SnapRead(id, 0, clients*run); err != nil {
				errs <- fmt.Errorf("snap round %d read: %w", r, err)
				return
			}
			if err := c.SnapDelete(id); err != nil {
				errs <- fmt.Errorf("snap round %d delete: %w", r, err)
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := svc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestServerGracefulShutdown: the shutdown op stops Serve, in-flight work
// drains, and the service is handed back open so the owner can checkpoint
// it.
func TestServerGracefulShutdown(t *testing.T) {
	svc, err := shard.NewService(testShardConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	_, addr, served := startServer(t, svc)

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Write(0, pattern('s', 4, svc.SectorSize())); err != nil {
		t.Fatal(err)
	}
	if err := c.Shutdown(); err != nil {
		t.Fatalf("shutdown op: %v", err)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v after shutdown", err)
	}
	c.Close()
	// New connections are refused…
	if c2, err := Dial(addr); err == nil {
		c2.Close()
		t.Fatal("dial succeeded after shutdown")
	}
	// …but the service is still open: the owner checkpoints it.
	if err := svc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatalf("service close after serve: %v", err)
	}
}

// TestServerRejectsGarbage: a connection whose first frame is not a valid
// hello — an oversized frame header, or a well-formed ping of the retired
// untagged protocol — is closed without an answer and without taking the
// server down.
func TestServerRejectsGarbage(t *testing.T) {
	svc, err := shard.NewService(testShardConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	s, addr, served := startServer(t, svc)
	defer func() { s.Shutdown(); <-served }()

	for name, first := range map[string][]byte{
		"oversized header": {0xff, 0xff, 0xff, 0xff, 0x00},
		"untagged ping":    frame([]byte{opPing}),
	} {
		raw, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		raw.Write(first)
		if n, _ := raw.Read(make([]byte, 16)); n != 0 {
			t.Fatalf("%s: server answered with %d bytes", name, n)
		}
		raw.Close()
	}

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after garbage connection: %v", err)
	}
}

// TestMountFromImages is the daemon's persistence loop in miniature:
// initialize per-shard devices, run a service over them, close (which
// checkpoints), stream each device to an image, load the images back, and
// remount with NewServiceFrom/ConfigForDevices — data written before the
// restart must be readable after it.
func TestMountFromImages(t *testing.T) {
	const shards = 4
	nc := testNandConfig()

	// Init: one fresh FTL per shard, closed immediately (the daemon's
	// "format" step), streamed to an image.
	images := make([]*bytes.Buffer, shards)
	for i := range images {
		f, err := iosnap.New(iosnap.DefaultConfig(nc), nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Close(0); err != nil {
			t.Fatal(err)
		}
		images[i] = &bytes.Buffer{}
		if err := f.Device().SaveImage(images[i]); err != nil {
			t.Fatal(err)
		}
	}

	// loadDevs reconstructs the per-shard devices from the current images;
	// the daemon keeps these handles so it can SaveImage them after Close.
	loadDevs := func() []*nand.Device {
		devs := make([]*nand.Device, shards)
		for i := range devs {
			d, err := nand.LoadImage(bytes.NewReader(images[i].Bytes()))
			if err != nil {
				t.Fatalf("shard %d image: %v", i, err)
			}
			devs[i] = d
		}
		return devs
	}

	// First mount: serve, write a run straddling a shard boundary over the
	// wire, shut down gracefully, checkpoint, persist.
	devs := loadDevs()
	cfg, err := shard.ConfigForDevices(devs)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := shard.NewServiceFrom(cfg, devs)
	if err != nil {
		t.Fatal(err)
	}
	_, addr, served := startServer(t, svc)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	want := pattern('m', 32, svc.SectorSize())
	lba := cfg.Base.UserSectors/int64(shards) - 8 // straddles shard 0/1
	if err := c.Write(lba, want); err != nil {
		t.Fatal(err)
	}
	if err := c.Shutdown(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := svc.Close(); err != nil { // checkpoints every shard
		t.Fatal(err)
	}
	for i, d := range devs {
		images[i].Reset()
		if err := d.SaveImage(images[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Second mount: the data survives the restart.
	devs2 := loadDevs()
	cfg2, err := shard.ConfigForDevices(devs2)
	if err != nil {
		t.Fatal(err)
	}
	svc2, err := shard.NewServiceFrom(cfg2, devs2)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.Close()
	got := make([]byte, len(want))
	if err := svc2.Read(lba, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data lost across image save/load remount")
	}
	if err := svc2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

package srv

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"iosnap/internal/shard"
)

// startServerWith is startServer with a chance to configure the Server
// (window, TTL, beforeHandler hook) before Serve starts — the hook field
// must not be written once handler goroutines may be reading it.
func startServerWith(t *testing.T, svc *shard.Service, setup func(*Server)) (*Server, string, chan error) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(svc, ln)
	if setup != nil {
		setup(s)
	}
	served := make(chan error, 1)
	go func() { served <- s.Serve() }()
	return s, ln.Addr().String(), served
}

// TestWireNegotiation: a dial completes the handshake and is granted a
// window, no larger than the one it asked for.
func TestWireNegotiation(t *testing.T) {
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
	if c.Proto() != 2 || c.Window() != defaultWindow {
		t.Fatalf("negotiated proto %d window %d, want v2 with the default window", c.Proto(), c.Window())
	}
	c3, err := DialOpts(addr, DialOptions{Window: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if c3.Window() != 3 {
		t.Fatalf("asked for a window of 3, got %d", c3.Window())
	}
	ss := svc.SectorSize()
	if err := c3.Write(0, pattern('1', 4, ss)); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(0, 4)
	if err != nil || !bytes.Equal(got, pattern('1', 4, ss)) {
		t.Fatalf("read on one connection of a write acknowledged on another: %v", err)
	}
}

// largeRead is a sector count whose response is above the inline threshold
// at the test geometry's 512-byte sectors, so the request gets a handler.
const largeRead = inlineMax/512 + 1

// frame builds one length-prefixed frame from the given parts: what a raw
// test peer speaks.
func frame(parts ...[]byte) []byte {
	f := make([]byte, 4)
	for _, p := range parts {
		f = append(f, p...)
	}
	binary.BigEndian.PutUint32(f, uint32(len(f)-4))
	return f
}

// request builds one tagged request frame.
func request(tag uint32, op byte, a args, payload []byte) []byte {
	return frame(binary.BigEndian.AppendUint32(nil, tag), []byte{op}, a.b[:a.n], payload)
}

func writeFrame(w io.Writer, parts ...[]byte) error {
	_, err := w.Write(frame(parts...))
	return err
}

// readFrame reads one length-prefixed frame, as a raw test peer does.
func readFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	buf := make([]byte, binary.BigEndian.Uint32(hdr[:]))
	_, err := io.ReadFull(r, buf)
	return buf, err
}

// rawHello dials a raw connection and completes the v2 hello on it.
func rawHello(t *testing.T, addr string, window int) net.Conn {
	t.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	h := helloArgs(window)
	if err := writeFrame(raw, []byte{opHello}, h.b[:h.n]); err != nil {
		t.Fatal(err)
	}
	ack, err := readFrame(raw)
	if err != nil || len(ack) == 0 || ack[0] != statusOK {
		t.Fatalf("hello ack: %v", err)
	}
	return raw
}

// TestWireOutOfOrderCompletion pins the point of tagging: a large transfer
// does not block what follows it. The beforeHandler gate stalls the large
// read's handler deterministically; the ping issued after it runs inline
// on the reader and completes first.
func TestWireOutOfOrderCompletion(t *testing.T) {
	svc, err := shard.NewService(testShardConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	release := make(chan struct{})
	s, addr, served := startServerWith(t, svc, func(s *Server) {
		s.beforeHandler = func() { <-release }
	})
	defer func() { s.Shutdown(); <-served }()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rd := c.GoRead(0, largeRead) // stalls server-side until release
	pg := c.GoPing()
	if _, err := pg.Wait(); err != nil {
		t.Fatalf("ping behind stalled read: %v", err)
	}
	select {
	case <-rd.Done():
		t.Fatal("stalled read completed before its gate released")
	default:
	}
	close(release)
	if b, err := rd.Wait(); err != nil || len(b) != largeRead*svc.SectorSize() {
		t.Fatalf("read after release: %d bytes, %v", len(b), err)
	}
}

// TestWireSmallRequestsInOrder is the converse: the small requests of one
// connection take effect in arrival order, so a write and a read of the
// same LBA pipelined in one window — never waiting in between — observe
// each other.
func TestWireSmallRequestsInOrder(t *testing.T) {
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
	ss := svc.SectorSize()
	const rounds = 40
	var writes, reads []*Call
	for r := 0; r < rounds; r++ {
		writes = append(writes, c.GoWrite(7, pattern(byte(r), 2, ss)))
		reads = append(reads, c.GoRead(7, 2))
	}
	for r := 0; r < rounds; r++ {
		if _, err := writes[r].Wait(); err != nil {
			t.Fatalf("write %d: %v", r, err)
		}
		if got, err := reads[r].Wait(); err != nil || !bytes.Equal(got, pattern(byte(r), 2, ss)) {
			t.Fatalf("read %d did not observe the write pipelined before it: %v", r, err)
		}
	}
}

// TestWireMidPipelineError: an in-band failure on one tag answers that tag
// alone — requests pipelined before and after it complete normally.
func TestWireMidPipelineError(t *testing.T) {
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
	ss := svc.SectorSize()
	if err := c.Write(0, pattern('e', 2, ss)); err != nil {
		t.Fatal(err)
	}

	good1 := c.GoRead(0, 2)
	bad := c.GoRead(svc.Sectors(), 1) // out of range -> in-band error
	good2 := c.GoPing()
	good3 := c.GoWrite(2, pattern('f', 1, ss))

	if b, err := good1.Wait(); err != nil || !bytes.Equal(b, pattern('e', 2, ss)) {
		t.Fatalf("read before failing tag: %v", err)
	}
	if _, err := bad.Wait(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("failing tag error = %v", err)
	}
	if _, err := good2.Wait(); err != nil {
		t.Fatalf("ping after failing tag: %v", err)
	}
	if _, err := good3.Wait(); err != nil {
		t.Fatalf("write after failing tag: %v", err)
	}
}

// TestWireMalformedTaggedFrames: a tagged frame too short to carry tag+op,
// an oversized header, and a frame truncated mid-payload each end only the
// offending connection; the server keeps serving others.
func TestWireMalformedTaggedFrames(t *testing.T) {
	svc, err := shard.NewService(testShardConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	s, addr, served := startServer(t, svc)
	defer func() { s.Shutdown(); <-served }()

	// Each raw connection completes the v2 hello first, then misbehaves.
	hello := func(t *testing.T) net.Conn { return rawHello(t, addr, 4) }

	t.Run("short", func(t *testing.T) {
		raw := hello(t)
		defer raw.Close()
		// 2-byte payload: no room for tag+op. No tag to answer on, so the
		// server must drop the connection silently.
		writeFrame(raw, []byte{1, 2})
		if n, _ := raw.Read(make([]byte, 16)); n != 0 {
			t.Fatalf("server answered a short tagged frame with %d bytes", n)
		}
	})
	t.Run("oversized", func(t *testing.T) {
		raw := hello(t)
		defer raw.Close()
		raw.Write([]byte{0xff, 0xff, 0xff, 0xff}) // header far past maxFrame
		if n, _ := raw.Read(make([]byte, 16)); n != 0 {
			t.Fatalf("server answered an oversized frame with %d bytes", n)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		raw := hello(t)
		// Header promises 100 bytes; send 3 and hang up.
		raw.Write([]byte{0, 0, 0, 100, 1, 2, 3})
		raw.Close()
	})

	// The server survived all three.
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Ping(); err != nil {
		t.Fatalf("ping after malformed connections: %v", err)
	}
}

// TestWireV1FallbackAgainstV1Server: a peer that answers the hello with an
// in-band error (exactly what the PR 9 server, which knew no hello, did) is
// not a server of this protocol. There is nothing to fall back to: Dial
// fails.
func TestWireV1FallbackAgainstV1Server(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				for {
					req, err := readFrame(c)
					if err != nil || len(req) == 0 {
						return
					}
					writeFrame(c, []byte{statusErr}, []byte(fmt.Sprintf("srv: unknown op %d", req[0])))
				}
			}()
		}
	}()

	c, err := Dial(ln.Addr().String())
	if err == nil {
		c.Close()
		t.Fatal("Dial succeeded against a peer that refused the hello")
	}
	if !strings.Contains(err.Error(), "refused the hello") {
		t.Fatalf("Dial error = %v, want the refusal named", err)
	}
}

// TestServeDrainsOnAcceptError: when Accept fails for a non-shutdown
// reason, Serve must not return while handler goroutines still run
// against the service — the caller's next move is closing it.
func TestServeDrainsOnAcceptError(t *testing.T) {
	svc, err := shard.NewService(testShardConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	release := make(chan struct{})
	entered := make(chan struct{})
	s, addr, served := startServerWith(t, svc, func(s *Server) {
		s.beforeHandler = func() {
			close(entered)
			<-release
		}
	})

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rd := c.GoRead(0, largeRead)
	c.Flush()
	<-entered // the handler is now in flight

	s.ln.Close() // abnormal accept failure, not a shutdown
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v with a handler still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-served; err == nil {
		t.Fatal("Serve returned nil for an abnormal accept failure")
	}
	<-rd.Done() // the drained connection failed the call; no hang
	if err := svc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteValidation: empty and non-sector-multiple write payloads are
// rejected in-band before reaching the shard layer, and the connection
// survives.
func TestWriteValidation(t *testing.T) {
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

	// Empty payload: a raw 8-byte body (lba only, zero data).
	if _, err := c.do(opWrite, args{}.u64(0), nil).Wait(); err == nil || !strings.Contains(err.Error(), "sector size") {
		t.Fatalf("empty write payload: %v", err)
	}
	if err := c.Write(0, make([]byte, svc.SectorSize()+1)); err == nil || !strings.Contains(err.Error(), "sector size") {
		t.Fatalf("ragged write payload: %v", err)
	}
	if err := c.Write(0, pattern('v', 1, svc.SectorSize())); err != nil {
		t.Fatalf("valid write after rejections: %v", err)
	}
}

// TestViewCacheServesRepeatedSnapReads: the snap-read hot loop activates
// once, hits the cache thereafter, and invalidates on delete.
func TestViewCacheServesRepeatedSnapReads(t *testing.T) {
	const shards = 2
	svc, err := shard.NewService(testShardConfig(shards))
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
	ss := svc.SectorSize()
	want := pattern('h', 4, ss)
	if err := c.Write(0, want); err != nil {
		t.Fatal(err)
	}
	id, err := c.SnapCreate()
	if err != nil {
		t.Fatal(err)
	}

	const reads = 50
	for i := 0; i < reads; i++ {
		got, err := c.SnapRead(id, 0, 4)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("snap-read %d: %v", i, err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ViewCacheMisses != 1 || st.ViewCacheHits != reads-1 {
		t.Fatalf("cache hits=%d misses=%d, want %d/1", st.ViewCacheHits, st.ViewCacheMisses, reads-1)
	}
	if st.ViewCacheLive != 1 {
		t.Fatalf("live cached views = %d, want 1", st.ViewCacheLive)
	}
	// The real point: one activation per shard total, not one per read.
	var acts int64
	for _, p := range st.PerShard {
		acts += p.SnapshotActivations
	}
	if acts != shards {
		t.Fatalf("SnapshotActivations = %d across %d reads, want %d (cache defeated)", acts, reads, shards)
	}

	// Delete invalidates: the entry is gone and later reads fail cleanly.
	if err := c.SnapDelete(id); err != nil {
		t.Fatal(err)
	}
	if _, err := c.SnapRead(id, 0, 4); err == nil {
		t.Fatal("snap-read of deleted snapshot served from cache")
	}
	st, err = c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.ViewCacheInvalidations != 1 || st.ViewCacheLive != 0 {
		t.Fatalf("after delete: invalidations=%d live=%d, want 1/0", st.ViewCacheInvalidations, st.ViewCacheLive)
	}
	if err := svc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestViewCacheExpiry drives the cache unit directly with a fake clock:
// an idle view past the TTL is deactivated by sweep; a busy one is not.
func TestViewCacheExpiry(t *testing.T) {
	svc, err := shard.NewService(testShardConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.Write(0, pattern('t', 1, svc.SectorSize())); err != nil {
		t.Fatal(err)
	}
	id, err := svc.CreateSnapshot()
	if err != nil {
		t.Fatal(err)
	}

	now := time.Unix(1000, 0)
	vc := newViewCache(svc, time.Second)
	vc.now = func() time.Time { return now }

	view, release, err := vc.acquire(id)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, svc.SectorSize())
	if err := view.Read(0, buf); err != nil {
		t.Fatal(err)
	}

	// A held entry never expires, no matter how stale.
	now = now.Add(time.Hour)
	vc.sweep()
	if _, _, exp, _, live := vc.counters(); exp != 0 || live != 1 {
		t.Fatalf("sweep expired a held view: expiries=%d live=%d", exp, live)
	}
	release()

	// Released but fresh: release stamped the idle clock at now.
	vc.sweep()
	if _, _, exp, _, _ := vc.counters(); exp != 0 {
		t.Fatal("sweep expired a fresh view")
	}
	// Released and stale: swept.
	now = now.Add(2 * time.Second)
	vc.sweep()
	if _, _, exp, _, live := vc.counters(); exp != 1 || live != 0 {
		t.Fatalf("expiries=%d live=%d, want 1/0", exp, live)
	}

	// Reacquire after expiry works (a fresh activation).
	_, release, err = vc.acquire(id)
	if err != nil {
		t.Fatal(err)
	}
	release()
	vc.drain()
	if err := svc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestViewCacheInvalidateWithReaderInside: invalidation while a reader
// holds the view defers the deactivation to the last release; the reader
// finishes safely.
func TestViewCacheInvalidateWithReaderInside(t *testing.T) {
	svc, err := shard.NewService(testShardConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if err := svc.Write(0, pattern('d', 2, svc.SectorSize())); err != nil {
		t.Fatal(err)
	}
	id, err := svc.CreateSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	vc := newViewCache(svc, time.Minute)

	view, release, err := vc.acquire(id)
	if err != nil {
		t.Fatal(err)
	}
	vc.invalidate(id)
	if err := svc.DeleteSnapshot(id); err != nil {
		t.Fatal(err)
	}
	// The reader is still inside a doomed entry: its activation epoch keeps
	// the snapshot's blocks live, so the read still returns the frozen data.
	buf := make([]byte, 2*svc.SectorSize())
	if err := view.Read(0, buf); err != nil {
		t.Fatalf("read on doomed view: %v", err)
	}
	if !bytes.Equal(buf, pattern('d', 2, svc.SectorSize())) {
		t.Fatal("doomed view returned wrong data")
	}
	release() // last ref: deactivates here
	if _, _, _, inv, live := vc.counters(); inv != 1 || live != 0 {
		t.Fatalf("invalidations=%d live=%d, want 1/0", inv, live)
	}
	if err := svc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// stormCounts tallies the snapshot ops of every connection of a storm.
type stormCounts struct{ creates, snapReads, deletes atomic.Int64 }

// stormConn drives one connection of TestWirePipelinedStorm: up to depth
// calls in flight, harvested oldest first, a seeded mix of 1-sector reads,
// writes (30%) and snapshot ops (10%: create, four snap-reads, delete the
// oldest once more than three are live) inside the connection's own LBA
// region. It deletes what it created and counts the snapshot ops it issued.
func stormConn(addr string, ci, depth, ops int, region int64, ss int, n *stormCounts) error {
	c, err := DialOpts(addr, DialOptions{Window: depth})
	if err != nil {
		return err
	}
	defer c.Close()
	rng := rand.New(rand.NewSource(42 + int64(ci)*7919))
	base := region * int64(ci)
	wbuf := pattern(byte(ci), 1, ss)

	var snaps []uint64
	snapPhase := 0 // 0 create, 1..4 snap-read, 5 delete-oldest
	type slot struct {
		call   *Call
		create bool
	}
	ring := make([]slot, 0, depth)
	harvest := func(sl slot) error {
		b, err := sl.call.Wait()
		if err != nil {
			return err
		}
		if sl.create {
			if len(b) != 8 {
				return fmt.Errorf("snap-create response %d bytes", len(b))
			}
			snaps = append(snaps, be64(b))
		}
		return nil
	}
	drain := func() error {
		for _, sl := range ring {
			if err := harvest(sl); err != nil {
				return err
			}
		}
		ring = ring[:0]
		return nil
	}
	for i := 0; i < ops; i++ {
		if len(ring) == depth {
			if err := harvest(ring[0]); err != nil {
				return err
			}
			ring = ring[1:]
		}
		lba := base + rng.Int63n(region)
		var sl slot
		switch p := rng.Intn(100); {
		case p < 10 && (snapPhase == 0 || len(snaps) == 0):
			// The create's ID is needed before the next snapshot op can be
			// chosen, so it does not overlap this connection's own calls.
			if err := drain(); err != nil {
				return err
			}
			sl = slot{call: c.GoSnapCreate(), create: true}
			n.creates.Add(1)
			snapPhase = 1
		case p < 10 && snapPhase >= 5 && len(snaps) > 3:
			sl = slot{call: c.GoSnapDelete(snaps[0])}
			snaps = snaps[1:]
			n.deletes.Add(1)
			snapPhase = 0
		case p < 10:
			sl = slot{call: c.GoSnapRead(snaps[len(snaps)-1], lba, 1)}
			n.snapReads.Add(1)
			snapPhase = (snapPhase + 1) % 6
		case p < 40:
			sl = slot{call: c.GoWrite(lba, wbuf)}
		default:
			sl = slot{call: c.GoRead(lba, 1)}
		}
		ring = append(ring, sl)
	}
	if err := drain(); err != nil {
		return err
	}
	for _, id := range snaps {
		if err := c.SnapDelete(id); err != nil {
			return err
		}
		n.deletes.Add(1)
	}
	return nil
}

// TestWirePipelinedStorm is the -race leg for the wire path: several
// clients with deep pipelines, a write/snap-churn mix, then a full
// invariant sweep.
func TestWirePipelinedStorm(t *testing.T) {
	svc, err := shard.NewService(testShardConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	s, addr, served := startServer(t, svc)
	defer func() { s.Shutdown(); <-served }()

	ops := 300
	if testing.Short() {
		ops = 60
	}
	const conns = 4
	var wg sync.WaitGroup
	var n stormCounts
	for ci := 0; ci < conns; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			if err := stormConn(addr, ci, 8, ops, svc.Sectors()/conns, svc.SectorSize(), &n); err != nil {
				t.Errorf("conn %d: %v", ci, err)
			}
		}(ci)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if n.creates.Load() == 0 || n.snapReads.Load() == 0 || n.deletes.Load() == 0 {
		t.Fatalf("storm mix degenerate: %d creates, %d snap-reads, %d deletes", n.creates.Load(), n.snapReads.Load(), n.deletes.Load())
	}
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if len(st.PerShardVirtual) != 4 {
		t.Fatalf("PerShardVirtual has %d entries, want 4", len(st.PerShardVirtual))
	}
	if st.LiveSnapshots != 0 {
		t.Fatalf("storm leaked %d snapshots", st.LiveSnapshots)
	}
	if err := svc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWireShutdownMidPipeline: a shutdown racing deep pipelines neither
// hangs nor corrupts — calls after the cut fail cleanly, Serve drains, and
// the service passes its invariant sweep.
func TestWireShutdownMidPipeline(t *testing.T) {
	svc, err := shard.NewService(testShardConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	_, addr, served := startServer(t, svc)

	const clients = 3
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			c, err := Dial(addr)
			if err != nil {
				return // shutdown won the race to the listener
			}
			defer c.Close()
			base := int64(ci * 32)
			for r := 0; ; r++ {
				var calls []*Call
				for k := 0; k < 8; k++ {
					calls = append(calls, c.GoWrite(base+int64(k), pattern(byte(r), 1, svc.SectorSize())))
					calls = append(calls, c.GoRead(base+int64(k), 1))
				}
				for _, cl := range calls {
					if _, err := cl.Wait(); err != nil {
						return // in-band or connection error after shutdown: fine
					}
				}
			}
		}(ci)
	}
	time.Sleep(20 * time.Millisecond) // let the pipelines get going
	sc, err := Dial(addr)
	if err == nil {
		sc.Shutdown()
		sc.Close()
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
	wg.Wait() // every client unblocked: no hang
	if err := svc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWireHugeTrimStaysInBand: one trim frame with a run length near 2^63
// used to wrap the range check and run the daemon out of memory. It is an
// ordinary in-band error; the connection and the server carry on.
func TestWireHugeTrimStaysInBand(t *testing.T) {
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
	ss := svc.SectorSize()
	if err := c.Write(1, pattern('z', 2, ss)); err != nil {
		t.Fatal(err)
	}
	if err := c.Trim(1, math.MaxInt64); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("huge trim: %v, want an in-band out-of-range error", err)
	}
	if got, err := c.Read(1, 2); err != nil || !bytes.Equal(got, pattern('z', 2, ss)) {
		t.Fatalf("read on the same connection after the huge trim: %v", err)
	}
	c2, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if err := c2.Ping(); err != nil {
		t.Fatalf("server did not survive the huge trim: %v", err)
	}
}

// TestWireInlineThreshold walks the edge between the two execution paths:
// a read of exactly inlineMax bytes runs on the reader, one sector more
// gets a handler, and both return the right bytes — as does a small read
// pipelined behind an inline read that failed after its room in the write
// buffer was reserved (nothing of the failed one may be left there).
func TestWireInlineThreshold(t *testing.T) {
	svc, err := shard.NewService(testShardConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	var handlers atomic.Int32
	s, addr, served := startServerWith(t, svc, func(s *Server) {
		s.beforeHandler = func() { handlers.Add(1) }
	})
	defer func() { s.Shutdown(); <-served }()

	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ss := svc.SectorSize()
	const atEdge = inlineMax / 512
	want := pattern('t', atEdge+1, ss)
	if err := c.Write(0, want[:atEdge*ss]); err != nil { // payload == inlineMax: inline
		t.Fatal(err)
	}
	if n := handlers.Load(); n != 0 {
		t.Fatalf("a write of exactly inlineMax bytes took %d handlers", n)
	}
	if err := c.Write(atEdge, want[atEdge*ss:]); err != nil {
		t.Fatal(err)
	}

	edge := c.GoRead(0, atEdge)
	bad := c.GoRead(svc.Sectors()-1, 2) // fails inside the FTL call, buffer room already reserved
	small := c.GoRead(atEdge, 1)
	if got, err := edge.Wait(); err != nil || !bytes.Equal(got, want[:atEdge*ss]) {
		t.Fatalf("read of exactly inlineMax bytes: %v", err)
	}
	if _, err := bad.Wait(); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("failing inline read: %v", err)
	}
	if got, err := small.Wait(); err != nil || !bytes.Equal(got, want[atEdge*ss:]) {
		t.Fatalf("read behind a failed inline read: %v", err)
	}
	if n := handlers.Load(); n != 0 {
		t.Fatalf("reads up to inlineMax bytes took %d handlers", n)
	}

	if got, err := c.Read(0, atEdge+1); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("read one sector over inlineMax: %v", err)
	}
	if n := handlers.Load(); n != 1 {
		t.Fatalf("a read one sector over inlineMax took %d handlers, want 1", n)
	}
	if err := c.Write(0, want); err != nil || handlers.Load() != 2 {
		t.Fatalf("a write one sector over inlineMax: err %v, %d handlers, want 2", err, handlers.Load())
	}
}

// TestWireShutdownWithHandlersInFlight: the shutdown op is acknowledged at
// once even while a large request of the same connection is executing, and
// Serve returns only after that handler finished.
func TestWireShutdownWithHandlersInFlight(t *testing.T) {
	svc, err := shard.NewService(testShardConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	release := make(chan struct{})
	entered := make(chan struct{})
	_, addr, served := startServerWith(t, svc, func(s *Server) {
		s.beforeHandler = func() {
			close(entered)
			<-release
		}
	})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	rd := c.GoRead(0, largeRead)
	c.Flush()
	<-entered
	if err := c.Shutdown(); err != nil {
		t.Fatalf("shutdown op behind an in-flight handler: %v", err)
	}
	select {
	case err := <-served:
		t.Fatalf("Serve returned %v with a handler still in flight", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v", err)
	}
	<-rd.Done() // answered or failed by the closed connection; never hung
	if err := svc.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWireClientStopsReading: a peer that pipelines reads and never takes
// a response fills the socket, and the server side blocks in its write.
// When the peer goes away the connection unwinds — reader, handlers and
// all — without the server having to shut down.
func TestWireClientStopsReading(t *testing.T) {
	svc, err := shard.NewService(testShardConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	s, addr, served := startServer(t, svc)
	defer func() { s.Shutdown(); <-served }()

	raw := rawHello(t, addr, 8)
	// 8 MiB of small responses and as much again of large ones, none read:
	// far more than loopback socket buffers hold.
	raw.SetWriteDeadline(time.Now().Add(2 * time.Second)) // the server stops reading once its writes block
	for tag := uint32(1); tag <= 1024; tag++ {
		n := uint32(inlineMax / 512)
		if tag%2 == 0 {
			n = largeRead
		}
		if _, err := raw.Write(request(tag, opRead, args{}.u64(0).u32(n), nil)); err != nil {
			break
		}
	}
	raw.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.mu.Lock()
		live := len(s.conns)
		s.mu.Unlock()
		if live == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d server connections still alive after the peer went away", live)
		}
		time.Sleep(time.Millisecond)
	}
}

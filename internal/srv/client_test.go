package srv

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"testing"

	"iosnap/internal/shard"
)

// lbaStamped returns n sectors from lba on, every 8-byte word naming its
// sector and its offset in it: no two sectors of a device hold the same
// bytes, so no two reads at different LBAs return the same payload.
func lbaStamped(lba int64, n, ss int) []byte {
	b := make([]byte, n*ss)
	for off := 0; off < len(b); off += 8 {
		binary.BigEndian.PutUint32(b[off:], uint32(lba)+uint32(off/ss))
		binary.BigEndian.PutUint32(b[off+4:], uint32(off%ss))
	}
	return b
}

// stampedService serves a two-shard service of 4 KiB sectors, every one
// written with lbaStamped, on loopback until the test ends. At this sector
// size a 64-sector read is larger than connBuf.
func stampedService(tb testing.TB) (*shard.Service, string) {
	cfg := testShardConfig(2)
	cfg.Base.Nand.SectorSize = 4096
	svc, err := shard.NewService(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	if err := svc.Write(0, lbaStamped(0, int(svc.Sectors()), svc.SectorSize())); err != nil {
		tb.Fatal(err)
	}
	s, addr, served := startServer(tb, svc)
	tb.Cleanup(func() {
		s.Shutdown()
		<-served
		svc.Close()
	})
	return svc, addr
}

// trickleConn hands its reader the connection's bytes 1 to 7 at a time.
type trickleConn struct {
	net.Conn
	br  *bufio.Reader
	rng *rand.Rand
}

func newTrickleConn(c net.Conn) *trickleConn {
	return &trickleConn{Conn: c, br: bufio.NewReader(c), rng: rand.New(rand.NewSource(7))}
}

func (c *trickleConn) Read(p []byte) (int, error) {
	return c.br.Read(p[:min(len(p), 1+c.rng.Intn(7))])
}

// TestClientKeepsEveryPayload: a payload the client hands out stays its
// caller's. Reads of 1, 8 and 64 sectors of 4 KiB — payloads on both sides
// of connBuf, and across the ends of receive arenas — run pipelined at
// depth 16, each of different contents; every body is kept and checked only
// after the last response has arrived, then again after an append to each
// (which must never reach the body after it). The trickle leg delivers the
// stream 1 to 7 bytes per read, so every split point of a header and of a
// payload is hit.
func TestClientKeepsEveryPayload(t *testing.T) {
	svc, addr := stampedService(t)
	ss := svc.SectorSize()
	sizes := []int{1, 8, 64}
	const reads = 192
	lba := func(i int) int64 { return int64(i*37) % (svc.Sectors() - 64 + 1) } // distinct for i < 704
	for _, leg := range []struct {
		name string
		wrap func(net.Conn) net.Conn
	}{
		{"loopback", func(c net.Conn) net.Conn { return c }},
		{"trickle", func(c net.Conn) net.Conn { return newTrickleConn(c) }},
	} {
		t.Run(leg.name, func(t *testing.T) {
			raw, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			c, err := newClient(leg.wrap(raw), DialOptions{Window: 16})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			calls := make([]*Call, reads)
			for i := range calls {
				calls[i] = c.GoRead(lba(i), sizes[i%len(sizes)])
			}
			bodies := make([][]byte, reads)
			for i, cl := range calls {
				if bodies[i], err = cl.Wait(); err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
			}
			check := func(when string) {
				t.Helper()
				for i, b := range bodies {
					n := sizes[i%len(sizes)]
					if !bytes.Equal(b, lbaStamped(lba(i), n, ss)) {
						t.Fatalf("read %d (%d sectors at LBA %d) %s: not the sectors read", i, n, lba(i), when)
					}
				}
			}
			check("after the last response arrived")
			for i := range bodies {
				_ = append(bodies[i], bytes.Repeat([]byte{0xEE}, 64)...)
			}
			check("after an append to every body")
		})
	}
}

// TestClientPipelinedReadAllocations: a depth-16 batch of one-sector reads
// against an in-process server allocates, per read, the Call and its done
// channel, plus receive arenas amortised — no buffer per response.
func TestClientPipelinedReadAllocations(t *testing.T) {
	svc, err := shard.NewService(testShardConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	s, addr, served := startServer(t, svc)
	defer func() { s.Shutdown(); <-served }()
	c, err := DialOpts(addr, DialOptions{Window: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var calls [16]*Call
	if err := c.Write(0, pattern('a', len(calls), svc.SectorSize())); err != nil {
		t.Fatal(err)
	}
	var failed error
	batch := func() {
		for i := range calls {
			calls[i] = c.GoRead(int64(i), 1)
		}
		for _, cl := range calls {
			if _, err := cl.Wait(); err != nil {
				failed = err
			}
		}
	}
	batch()
	perRead := testing.AllocsPerRun(100, batch) / float64(len(calls))
	if failed != nil {
		t.Fatal(failed)
	}
	if perRead > 2.1 {
		t.Fatalf("%.2f allocations per pipelined one-sector read, want at most 2.1 (the Call, its done channel, arenas amortised)", perRead)
	}
}

// BenchmarkWirePipelinedRead measures the wire alone: reads of 4 KiB and
// 256 KiB kept 16 deep against an in-process server over loopback, with
// allocations reported. Run with -benchmem to size a wire change without
// the ledger.
func BenchmarkWirePipelinedRead(b *testing.B) {
	svc, addr := stampedService(b)
	for _, sectors := range []int{1, 64} {
		b.Run(fmt.Sprintf("%dKiB", sectors*svc.SectorSize()>>10), func(b *testing.B) {
			c, err := DialOpts(addr, DialOptions{Window: 16})
			if err != nil {
				b.Fatal(err)
			}
			defer c.Close()
			var ring [16]*Call
			wait := func(cl *Call) {
				if cl == nil {
					return
				}
				if _, err := cl.Wait(); err != nil {
					b.Fatal(err)
				}
			}
			span := svc.Sectors() - int64(sectors) + 1
			b.SetBytes(int64(sectors * svc.SectorSize()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				slot := &ring[i%len(ring)]
				wait(*slot)
				*slot = c.GoRead(int64(i*sectors)%span, sectors)
			}
			for _, cl := range ring {
				wait(cl)
			}
		})
	}
}

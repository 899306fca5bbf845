package srv

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"slices"
	"testing"
	"time"

	"iosnap/internal/shard"
)

// FuzzServeConn feeds arbitrary bytes to the one frame decoder, behind a
// valid hello: whatever arrives, the server neither panics nor hangs, the
// connection ends once the peer has stopped sending, and the service
// behind it passes its invariant sweep. The seeds are the malformed and
// hostile frames the wire tests send one at a time (short, oversized and
// truncated frames, empty and ragged write payloads, the 2^63-sector trim)
// plus one well-formed request of every op.
func FuzzServeConn(f *testing.F) {
	ss := testNandConfig().SectorSize
	for _, seed := range [][]byte{
		frame([]byte{1, 2}),
		{0xff, 0xff, 0xff, 0xff},
		{0, 0, 0, 100, 1, 2, 3},
		request(1, opWrite, args{}.u64(0), nil),
		request(2, opWrite, args{}.u64(0), make([]byte, ss+1)),
		request(3, opTrim, args{}.u64(1).u64(math.MaxInt64), nil),
		request(4, opRead, args{}.u64(0).u32(math.MaxUint32), nil),
		request(5, 0xEE, args{}, nil),
		request(6, opHello, helloArgs(4), nil),
	} {
		f.Add(seed)
	}
	var session []byte
	for i, req := range [][]byte{
		request(0, opPing, args{}, nil),
		request(0, opWrite, args{}.u64(7), pattern('f', 2, ss)),
		request(0, opRead, args{}.u64(7).u32(2), nil),
		request(0, opSnapCreate, args{}, nil),
		request(0, opWrite, args{}.u64(0), pattern('g', largeRead, ss)),
		request(0, opSnapRead, args{}.u64(1).u64(0).u32(largeRead), nil),
		request(0, opTrim, args{}.u64(7).u64(1), nil),
		request(0, opSnapDelete, args{}.u64(1), nil),
		request(0, opStats, args{}, nil),
		request(0, opShutdown, args{}, nil),
	} {
		req[7] = byte(i) // distinct tags
		f.Add(req)
		session = append(session, req...)
	}
	f.Add(session)

	f.Fuzz(func(t *testing.T, data []byte) {
		svc, err := shard.NewService(testShardConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		s, addr, served := startServer(t, svc)
		raw := rawHello(t, addr, 4)
		defer raw.Close()
		raw.SetDeadline(time.Now().Add(10 * time.Second))
		sent := make(chan struct{})
		go func() {
			defer close(sent)
			raw.Write(data) // fails once the server has hung up on a bad frame
			raw.(*net.TCPConn).CloseWrite()
		}()
		// A reset is an ending too: the server hung up with bytes unread.
		if _, err := io.Copy(io.Discard, raw); errors.Is(err, os.ErrDeadlineExceeded) {
			t.Error("connection still open 10 s after the peer stopped sending")
		}
		<-sent
		s.Shutdown()
		select {
		case <-served:
		case <-time.After(10 * time.Second):
			t.Fatal("Serve did not drain")
		}
		if err := svc.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// scriptConn is a fake server: it acknowledges the hello with a window,
// then, once start is closed, sends stream in reads of the sizes chops
// names in turn (a chop of k is k+1 bytes; no chops, as much as fits), then
// EOF. What the client writes is dropped. Its reads come from one
// goroutine at a time: the handshake's, then the client's reader.
type scriptConn struct {
	ack, stream, chops []byte
	start              chan struct{}
	k                  int
}

func newScriptConn(window int, stream, chops []byte) *scriptConn {
	ack := binary.BigEndian.AppendUint32(nil, 9)
	ack = append(ack, statusOK)
	ack = binary.BigEndian.AppendUint32(ack, protoVersion2)
	ack = binary.BigEndian.AppendUint32(ack, uint32(window))
	return &scriptConn{ack: ack, stream: stream, chops: chops, start: make(chan struct{})}
}

func (c *scriptConn) Read(p []byte) (int, error) {
	if len(c.ack) > 0 {
		n := copy(p, c.ack)
		c.ack = c.ack[n:]
		return n, nil
	}
	<-c.start
	if len(c.stream) == 0 {
		return 0, io.EOF
	}
	if len(c.chops) > 0 {
		p = p[:min(len(p), int(c.chops[c.k%len(c.chops)])+1)]
		c.k++
	}
	n := copy(p, c.stream)
	c.stream = c.stream[n:]
	return n, nil
}

func (c *scriptConn) Write(p []byte) (int, error)      { return len(p), nil }
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) LocalAddr() net.Addr              { return nil }
func (c *scriptConn) RemoteAddr() net.Addr             { return nil }
func (c *scriptConn) SetDeadline(time.Time) error      { return nil }
func (c *scriptConn) SetReadDeadline(time.Time) error  { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// response builds one response frame.
func response(tag uint32, status byte, body []byte) []byte {
	return frame(binary.BigEndian.AppendUint32(nil, tag), []byte{status}, body)
}

// parseResponses is the plain reference parse of a response stream to a
// client with tags 0 to window-1 in flight: frame after frame, until the
// stream ends or holds a frame the client cannot deliver — shorter than
// tag and status, longer than maxFrame, truncated, or for a tag not in
// flight. It returns each answered tag's frame payload, status first.
func parseResponses(s []byte, window int) map[uint32][]byte {
	got := make(map[uint32][]byte)
	for len(s) >= respHdr {
		n := int(be32(s))
		if n < respHdr-4 || n > maxFrame || len(s) < 4+n {
			break
		}
		tag := be32(s[4:])
		if _, dup := got[tag]; dup || tag >= uint32(window) {
			break
		}
		got[tag] = s[respHdr-1 : 4+n]
		s = s[4+n:]
	}
	return got
}

// FuzzClientRecv feeds the client's receive path arbitrary response bytes
// behind a valid hello acknowledgement, chopped into reads of fuzz-chosen
// sizes, with one call in flight on every tag of the window. Whatever
// arrives, the client neither panics nor hangs, and every call ends either
// with exactly the status and payload the reference parse gives its tag,
// kept intact until the last call ended, or with the connection's sticky
// error. The seeds are well-formed batches with payloads of 0 B, 8 B,
// 4 KiB and connBuf+1 bytes, a truncated frame, an oversized length and an
// unknown tag.
func FuzzClientRecv(f *testing.F) {
	const window = 4
	batch := slices.Concat(
		response(0, statusOK, nil),
		response(1, statusOK, putU64(42)),
		response(2, statusErr, []byte("srv: out of range")),
		response(3, statusOK, pattern('p', 8, 512)),
	)
	large := slices.Concat(response(2, statusOK, nil), response(0, statusOK, pattern('q', 1, connBuf+1)))
	for _, seed := range []struct{ stream, chops []byte }{
		{batch, nil},
		{batch, []byte{0, 6, 2, 200}},
		{large, nil},
		{large, []byte{254, 3}},
		{large[:len(large)-100], nil},
		{slices.Concat(response(1, statusOK, nil), []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0}), nil},
		{slices.Concat(response(3, statusOK, nil), response(window, statusOK, nil)), []byte{1}},
	} {
		f.Add(seed.stream, seed.chops)
	}

	f.Fuzz(func(t *testing.T, stream, chops []byte) {
		conn := newScriptConn(window, stream, chops)
		c, err := newClient(conn, DialOptions{Window: window})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		calls := make([]*Call, window)
		for i := range calls {
			calls[i] = c.GoPing() // tags are handed out 0, 1, … from a fresh window
		}
		close(conn.start)
		for tag, cl := range calls {
			select {
			case <-cl.Done():
			case <-time.After(10 * time.Second):
				t.Fatalf("call on tag %d pending 10 s after the stream ended", tag)
			}
		}
		c.pmu.Lock()
		sticky := c.cerr
		c.pmu.Unlock()
		want := parseResponses(stream, window)
		for tag, cl := range calls {
			w, ok := want[uint32(tag)]
			switch {
			case !ok && (cl.err == nil || cl.err != sticky):
				t.Fatalf("tag %d unanswered by the stream: call error %v, want the sticky %v", tag, cl.err, sticky)
			case ok && cl.err != nil:
				t.Fatalf("tag %d answered by the stream: call failed with %v", tag, cl.err)
			case ok && (cl.status != w[0] || !bytes.Equal(cl.body, w[1:]) || (len(w) == 1) != (cl.body == nil)):
				t.Fatalf("tag %d: status %d, %d-byte body; the stream says status %d, %d bytes", tag, cl.status, len(cl.body), w[0], len(w)-1)
			}
		}
	})
}

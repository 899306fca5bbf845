package srv

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
)

// Client speaks the block protocol to a Server over one connection. It
// keeps many tagged requests in flight (a background reader demuxes
// responses by tag) and the Go* methods expose the pipeline explicitly —
// issue several calls, then Wait them. The plain blocking methods are thin
// submit-and-wait wrappers and remain safe for concurrent use from any
// number of goroutines.
type Client struct {
	conn   net.Conn
	window int

	// Read side, the reader goroutine's alone (the handshake's before it
	// starts). Responses land in arena and are parsed where they land:
	// arena[:next] is parsed, and the payloads in it belong to their
	// callers and are never written again; arena[next:] is received but not
	// yet parsed.
	arena []byte
	next  int

	// Write side. Frames accumulate in bw and flush when a caller is about
	// to block (Wait, or do stalling on a full window), so a burst of
	// pipelined requests coalesces into few syscalls.
	wmu sync.Mutex
	bw  *bufio.Writer

	// Demux state. A tag is an index into slots; free holds the tags not in
	// flight, so it is also the window semaphore.
	free  chan uint32
	pmu   sync.Mutex
	slots []*Call
	cerr  error // sticky connection error

	broken chan struct{} // closed on connection failure
	failed sync.Once
}

// DialOptions tunes the connection handshake.
type DialOptions struct {
	// Window caps this client's in-flight pipelined requests. Zero asks
	// for the package default; the server may grant less.
	Window int
}

// Dial connects to a server with the default window.
func Dial(addr string) (*Client, error) {
	return DialOpts(addr, DialOptions{})
}

// DialOpts connects with explicit handshake options.
func DialOpts(addr string, o DialOptions) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return newClient(conn, o)
}

// newClient completes the handshake on an open connection, which it closes
// if the handshake fails.
func newClient(conn net.Conn, o DialOptions) (*Client, error) {
	c := &Client{conn: conn, bw: bufio.NewWriterSize(conn, connBuf)}
	want := o.Window
	if want <= 0 {
		want = defaultWindow
	}
	if err := c.handshake(want); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// handshake exchanges the connection's two untagged frames: it sends the
// hello and requires the server's acknowledgement, which grants a window.
// Any other answer — an in-band refusal included — is an error: there is
// no other protocol to fall back to.
func (c *Client) handshake(wantWindow int) error {
	var hello [4 + helloLen]byte
	binary.BigEndian.PutUint32(hello[:], uint32(helloLen))
	hello[4] = opHello
	h := helloArgs(wantWindow)
	copy(hello[5:], h.b[:h.n])
	if _, err := c.conn.Write(hello[:]); err != nil {
		return err
	}
	// The acknowledgement is [u32 len][u8 status][u32 version][u32 window];
	// its first five bytes tell whether the peer sent one.
	if err := c.fill(5); err != nil {
		return err
	}
	if n, status := be32(c.arena[c.next:]), c.arena[c.next+4]; n != 9 || status != statusOK {
		return fmt.Errorf("srv: peer refused the hello (%d-byte answer, status %d)", n, status)
	}
	if err := c.fill(13); err != nil {
		return err
	}
	ack := c.arena[c.next : c.next+13]
	c.next += len(ack)
	if v := be32(ack[5:]); v != protoVersion2 {
		return fmt.Errorf("srv: server negotiated unknown protocol version %d", v)
	}
	granted := int(be32(ack[9:]))
	if granted <= 0 {
		return fmt.Errorf("srv: server granted a zero request window")
	}
	if granted > wantWindow {
		granted = wantWindow
	}
	c.window = granted
	c.slots = make([]*Call, granted)
	c.free = make(chan uint32, granted)
	for tag := range c.slots {
		c.free <- uint32(tag)
	}
	c.broken = make(chan struct{})
	go c.reader()
	return nil
}

// Proto reports the protocol version the connection speaks.
func (c *Client) Proto() int { return protoVersion2 }

// Window reports the granted pipeline window.
func (c *Client) Window() int { return c.window }

// Close closes the connection. Outstanding pipelined calls fail.
func (c *Client) Close() error {
	return c.conn.Close()
}

// Call is one in-flight pipelined request. Issue it with a Go* method,
// then Wait (or select on Done) for the response.
type Call struct {
	c      *Client
	done   chan struct{}
	status byte
	body   []byte // response payload, the caller's once done is closed
	err    error
}

// Done is closed when the response (or a connection error) arrived.
func (cl *Call) Done() <-chan struct{} { return cl.done }

// Wait flushes any buffered requests, blocks for the response, and
// returns the payload or the in-band error. The payload is the caller's:
// it stays valid, and unchanged, as long as the caller holds it, and an
// append to it never reaches another response. An empty payload is nil.
func (cl *Call) Wait() ([]byte, error) {
	select {
	case <-cl.done:
	default:
		cl.c.flush()
		<-cl.done
	}
	if cl.err != nil {
		return nil, cl.err
	}
	switch cl.status {
	case statusOK:
		return cl.body, nil
	case statusErr:
		return nil, fmt.Errorf("%s", cl.body)
	default:
		return nil, fmt.Errorf("srv: unknown status %d", cl.status)
	}
}

// waitDiscard waits and keeps only the error.
func (cl *Call) waitDiscard() error {
	_, err := cl.Wait()
	return err
}

// completed is the Done channel of every call that never was in flight.
var completed = func() chan struct{} {
	done := make(chan struct{})
	close(done)
	return done
}()

// failedCall returns a pre-completed Call carrying err.
func failedCall(err error) *Call { return &Call{done: completed, err: err} }

// do issues one request: it takes a tag, writes the frame (possibly leaving
// it buffered), and returns immediately.
func (c *Client) do(op byte, a args, payload []byte) *Call {
	// Take a tag; if the window is full, flush first — the responses that
	// free tags cannot arrive while their requests sit in our write buffer.
	var tag uint32
	select {
	case tag = <-c.free:
	default:
		c.flush()
		select {
		case tag = <-c.free:
		case <-c.broken:
			return failedCall(c.cerr) // set before broken closed
		}
	}
	cl := &Call{c: c, done: make(chan struct{})}
	c.pmu.Lock()
	if c.cerr != nil {
		err := c.cerr
		c.pmu.Unlock()
		return failedCall(err)
	}
	c.slots[tag] = cl
	c.pmu.Unlock()

	c.wmu.Lock()
	err := c.send(tag, op, a, payload)
	c.wmu.Unlock()
	if err != nil {
		c.fail(err)
	}
	return cl
}

// send encodes one request frame into bw — [len][tag][op][args] in place
// in bw's buffer, then the payload. Caller holds wmu.
func (c *Client) send(tag uint32, op byte, a args, payload []byte) error {
	total := 5 + a.n + len(payload)
	if total > maxFrame {
		return fmt.Errorf("srv: frame of %d bytes exceeds limit %d", total, maxFrame)
	}
	if c.bw.Available() < 9+len(a.b) {
		if err := c.bw.Flush(); err != nil {
			return err
		}
	}
	b := binary.BigEndian.AppendUint32(c.bw.AvailableBuffer(), uint32(total))
	b = binary.BigEndian.AppendUint32(b, tag)
	b = append(append(b, op), a.b[:a.n]...)
	if _, err := c.bw.Write(b); err != nil {
		return err
	}
	_, err := c.bw.Write(payload)
	return err
}

// arenaSize is the capacity of one receive arena: four socket reads.
const arenaSize = 4 * connBuf

// fill makes at least n received, unparsed bytes available at arena[next:],
// reading at most connBuf per syscall. When they would run past the arena's
// end, a fresh arena takes over with the unparsed tail — less than one frame
// — and the old one is left to the payloads already handed out of it.
func (c *Client) fill(n int) error {
	for len(c.arena)-c.next < n {
		if c.next+n > cap(c.arena) {
			fresh := make([]byte, len(c.arena)-c.next, arenaSize)
			copy(fresh, c.arena[c.next:])
			c.arena, c.next = fresh, 0
		}
		end := min(len(c.arena)+connBuf, cap(c.arena))
		m, err := c.conn.Read(c.arena[len(c.arena):end])
		c.arena = c.arena[:len(c.arena)+m]
		if err != nil && len(c.arena)-c.next < n {
			return err
		}
	}
	return nil
}

// recv parses one response frame where it landed in the arena. A payload
// of up to connBuf bytes goes to the caller as a window of the arena with
// no spare capacity, which nothing writes again; a larger one gets
// recvLarge's allocation of its own.
func (c *Client) recv() (tag uint32, status byte, payload []byte, err error) {
	if err := c.fill(respHdr); err != nil {
		return 0, 0, nil, err
	}
	h := c.arena[c.next:]
	size := be32(h)
	if size < respHdr-4 || size > maxFrame {
		return 0, 0, nil, fmt.Errorf("srv: malformed response frame (%d bytes)", size)
	}
	tag, status = be32(h[4:]), h[respHdr-1]
	n := int(size) - (respHdr - 4)
	if n > connBuf {
		payload, err = c.recvLarge(n)
		return tag, status, payload, err
	}
	if err := c.fill(respHdr + n); err != nil {
		return 0, 0, nil, err
	}
	start := c.next + respHdr
	c.next = start + n
	if n > 0 {
		payload = c.arena[start:c.next:c.next]
	}
	return tag, status, payload, nil
}

// recvLarge reads the n-byte payload of the frame at the parse cursor into
// one exact allocation. What the arena already holds of the frame is copied
// in; if that is not all of it, the arena rewinds to the frame's start —
// nothing at or past the cursor was ever handed out — and the rest comes
// straight from the socket.
func (c *Client) recvLarge(n int) ([]byte, error) {
	payload := make([]byte, n)
	got := copy(payload, c.arena[c.next+respHdr:])
	if got == n {
		c.next += respHdr + n
		return payload, nil
	}
	c.arena = c.arena[:c.next]
	if _, err := io.ReadFull(c.conn, payload[got:]); err != nil {
		return nil, err
	}
	return payload, nil
}

// flush pushes buffered request frames onto the wire.
func (c *Client) flush() {
	c.wmu.Lock()
	err := c.bw.Flush()
	c.wmu.Unlock()
	if err != nil {
		c.fail(err)
	}
}

// reader demuxes response frames to their tags until the connection dies,
// then fails every outstanding call. The arena matters: the server batches
// responses, so one syscall here drains many frames.
func (c *Client) reader() {
	for {
		tag, status, payload, err := c.recv()
		if err != nil {
			c.fail(err)
			return
		}
		var cl *Call
		c.pmu.Lock()
		if int(tag) < len(c.slots) {
			cl, c.slots[tag] = c.slots[tag], nil
		}
		c.pmu.Unlock()
		if cl == nil {
			c.fail(fmt.Errorf("srv: response for unknown tag %d", tag))
			return
		}
		c.free <- tag // release the window slot
		cl.status, cl.body = status, payload
		close(cl.done)
	}
}

// fail records the terminal connection error, fails every pending call,
// and unblocks future submitters.
func (c *Client) fail(err error) {
	c.failed.Do(func() {
		c.pmu.Lock()
		c.cerr = err
		pend := c.slots
		c.slots = nil
		c.pmu.Unlock()
		close(c.broken)
		c.conn.Close()
		for _, cl := range pend {
			if cl != nil {
				cl.err = err
				close(cl.done)
			}
		}
	})
}

// --- pipelined (Go*) API ----------------------------------------------------

// GoPing starts a liveness check.
func (c *Client) GoPing() *Call { return c.do(opPing, args{}, nil) }

// GoRead starts a read of n sectors at lba.
func (c *Client) GoRead(lba int64, n int) *Call {
	return c.do(opRead, args{}.u64(uint64(lba)).u32(uint32(n)), nil)
}

// GoWrite starts a write of sector-aligned data at lba. The data is
// copied into the connection's write buffer before GoWrite returns.
func (c *Client) GoWrite(lba int64, data []byte) *Call {
	return c.do(opWrite, args{}.u64(uint64(lba)), data)
}

// GoTrim starts a trim of n sectors at lba.
func (c *Client) GoTrim(lba, n int64) *Call {
	return c.do(opTrim, args{}.u64(uint64(lba)).u64(uint64(n)), nil)
}

// GoSnapCreate starts a snapshot create. Note it barriers every shard, so
// it serializes against all in-flight I/O.
func (c *Client) GoSnapCreate() *Call { return c.do(opSnapCreate, args{}, nil) }

// GoSnapDelete starts a snapshot delete.
func (c *Client) GoSnapDelete(id uint64) *Call { return c.do(opSnapDelete, args{}.u64(id), nil) }

// GoSnapRead starts a read of n sectors at lba from snapshot id.
func (c *Client) GoSnapRead(id uint64, lba int64, n int) *Call {
	return c.do(opSnapRead, args{}.u64(id).u64(uint64(lba)).u32(uint32(n)), nil)
}

// Flush pushes any buffered pipelined requests onto the wire without
// waiting for their responses.
func (c *Client) Flush() { c.flush() }

// --- blocking API (thin wrappers over the pipeline) -------------------------

// Ping checks liveness.
func (c *Client) Ping() error { return c.GoPing().waitDiscard() }

// Read returns n sectors starting at lba from the live image. The data is
// the caller's, valid for as long as the caller holds it.
func (c *Client) Read(lba int64, n int) ([]byte, error) {
	return c.GoRead(lba, n).Wait()
}

// Write stores sector-aligned data at lba.
func (c *Client) Write(lba int64, data []byte) error {
	return c.GoWrite(lba, data).waitDiscard()
}

// Trim invalidates n sectors starting at lba.
func (c *Client) Trim(lba, n int64) error {
	return c.GoTrim(lba, n).waitDiscard()
}

// SnapCreate takes a consistent snapshot across all shards and returns
// its ID.
func (c *Client) SnapCreate() (uint64, error) {
	b, err := c.GoSnapCreate().Wait()
	if err != nil {
		return 0, err
	}
	if len(b) != 8 {
		return 0, fmt.Errorf("srv: snap-create response %d bytes, want 8", len(b))
	}
	return be64(b), nil
}

// SnapDelete tombstones a snapshot.
func (c *Client) SnapDelete(id uint64) error {
	return c.GoSnapDelete(id).waitDiscard()
}

// SnapRead returns n sectors starting at lba from snapshot id's frozen
// image. The data is the caller's, valid for as long as the caller holds
// it.
func (c *Client) SnapRead(id uint64, lba int64, n int) ([]byte, error) {
	return c.GoSnapRead(id, lba, n).Wait()
}

// Stats fetches the server's aggregate statistics.
func (c *Client) Stats() (ServerStats, error) {
	b, err := c.do(opStats, args{}, nil).Wait()
	if err != nil {
		return ServerStats{}, err
	}
	var st ServerStats
	if err := json.Unmarshal(b, &st); err != nil {
		return ServerStats{}, fmt.Errorf("srv: stats decode: %w", err)
	}
	return st, nil
}

// Shutdown asks the server to stop. The call returns once the server has
// acknowledged; Serve on the server side returns after in-flight work
// drains.
func (c *Client) Shutdown() error {
	return c.do(opShutdown, args{}, nil).waitDiscard()
}

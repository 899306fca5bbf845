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

// Client speaks the block protocol to a Server over one connection. Dial
// negotiates protocol v2 when the server supports it: the client then
// keeps many tagged requests in flight (a background reader demuxes
// responses by tag) and the Go* methods expose the pipeline explicitly —
// issue several calls, then Wait them. The plain blocking methods are
// thin submit-and-wait wrappers and remain safe for concurrent use from
// any number of goroutines. Against a v1-only server the client falls
// back to the serial protocol transparently (every call then holds the
// connection for its round-trip, exactly the old behavior).
type Client struct {
	conn   net.Conn
	br     *bufio.Reader // the reader goroutine's on v2, the caller's under wmu on v1
	v2     bool
	window int

	// Write side. On v2, frames accumulate in bw and flush when a caller
	// is about to block (Wait, or do stalling on a full window), so a
	// burst of pipelined requests coalesces into few syscalls. On v1, wmu
	// is held for a whole round-trip: one at a time.
	wmu sync.Mutex
	bw  *bufio.Writer

	// v2 demux state. A tag is an index into slots; free holds the tags
	// not in flight, so it is also the window semaphore.
	free  chan uint32
	pmu   sync.Mutex
	slots []*Call
	cerr  error // sticky connection error

	broken chan struct{} // closed on connection failure
	failed sync.Once
}

// DialOptions tunes the connection handshake.
type DialOptions struct {
	// ForceV1 skips version negotiation and speaks the serial v1
	// protocol, byte-for-byte what pre-v2 clients sent. Useful as a
	// baseline in benchmarks and to exercise the server's v1 path.
	ForceV1 bool
	// Window caps this client's in-flight pipelined requests. Zero asks
	// for the package default; the server may grant less.
	Window int
}

// Dial connects to a server, negotiating the newest protocol both sides
// speak.
func Dial(addr string) (*Client, error) {
	return DialOpts(addr, DialOptions{})
}

// DialOpts connects with explicit handshake options.
func DialOpts(addr string, o DialOptions) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &Client{conn: conn, br: bufio.NewReaderSize(conn, connBuf), bw: bufio.NewWriterSize(conn, connBuf)}
	if o.ForceV1 {
		return c, nil
	}
	want := o.Window
	if want <= 0 {
		want = defaultWindow
	}
	if err := c.negotiate(want); err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

// negotiate sends the hello and interprets the answer: a v2 server grants
// a window and the connection switches to tagged framing; a v1 server
// reports an in-band "unknown op" error, which downgrades the client to
// serial mode on the same connection.
func (c *Client) negotiate(wantWindow int) error {
	status, resp, err := c.call1(opHello, helloArgs(wantWindow), nil)
	if err != nil {
		return err
	}
	defer putBuf(resp)
	if status == statusErr {
		// A v1 server does not know the hello op; stay serial.
		return nil
	}
	if status != statusOK || len(resp) != 8 {
		return fmt.Errorf("srv: malformed hello response (%d bytes, status %d)", len(resp), status)
	}
	if v := be32(resp); v != protoVersion2 {
		return fmt.Errorf("srv: server negotiated unknown protocol version %d", v)
	}
	granted := int(be32(resp[4:]))
	if granted <= 0 {
		return fmt.Errorf("srv: server granted a zero request window")
	}
	if granted > wantWindow {
		granted = wantWindow
	}
	c.v2 = true
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

// Proto reports the negotiated protocol version (1 or 2).
func (c *Client) Proto() int {
	if c.v2 {
		return 2
	}
	return 1
}

// Window reports the granted pipeline window (0 on a v1 connection).
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
	body   []byte // pooled response payload (nil after release)
	err    error
}

// Done is closed when the response (or a connection error) arrived.
func (cl *Call) Done() <-chan struct{} { return cl.done }

// Wait flushes any buffered requests, blocks for the response, and
// returns the payload or the in-band error. The payload is the response
// buffer; it stays valid until release is called (the typed wrappers
// handle that).
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

// release recycles the response buffer. Only wrappers that do not hand
// the payload to the caller may use it.
func (cl *Call) release() {
	putBuf(cl.body)
	cl.body = nil
}

// waitDiscard waits and releases the response, keeping only the error.
func (cl *Call) waitDiscard() error {
	_, err := cl.Wait()
	cl.release()
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

// do issues one request. On a v2 connection it takes a tag, writes the
// frame (possibly leaving it buffered), and returns immediately; on a v1
// connection it performs the blocking round-trip right here, so the
// pipeline API degrades to serial calls rather than failing.
func (c *Client) do(op byte, a args, payload []byte) *Call {
	if !c.v2 {
		status, body, err := c.call1(op, a, payload)
		return &Call{done: completed, status: status, body: body, err: err}
	}
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

// send encodes one request frame into bw — [len][tag, v2 only][op][args]
// in place in bw's buffer, then the payload. Caller holds wmu.
func (c *Client) send(tag uint32, op byte, a args, payload []byte) error {
	total := 1 + a.n + len(payload)
	if c.v2 {
		total += 4
	}
	if total > maxFrame {
		return fmt.Errorf("srv: frame of %d bytes exceeds limit %d", total, maxFrame)
	}
	if c.bw.Available() < 9+len(a.b) {
		if err := c.bw.Flush(); err != nil {
			return err
		}
	}
	b := binary.BigEndian.AppendUint32(c.bw.AvailableBuffer(), uint32(total))
	if c.v2 {
		b = binary.BigEndian.AppendUint32(b, tag)
	}
	b = append(append(b, op), a.b[:a.n]...)
	if _, err := c.bw.Write(b); err != nil {
		return err
	}
	_, err := c.bw.Write(payload)
	return err
}

// recv reads one response frame: the fixed [len][tag, v2 only][status]
// prefix is parsed where it lies in br, and only the payload is copied,
// into a pooled buffer of its own size class that the caller owns.
func (c *Client) recv() (tag uint32, status byte, payload []byte, err error) {
	hdr := 5
	if c.v2 {
		hdr = 9
	}
	p, err := c.br.Peek(hdr)
	if err != nil {
		return 0, 0, nil, err
	}
	n := int(be32(p)) - (hdr - 4)
	if n < 0 || n > maxFrame {
		return 0, 0, nil, fmt.Errorf("srv: malformed response frame (%d bytes)", be32(p))
	}
	if c.v2 {
		tag = be32(p[4:])
	}
	status = p[hdr-1]
	c.br.Discard(hdr)
	payload = getBuf(n)
	if _, err := io.ReadFull(c.br, payload); err != nil {
		putBuf(payload)
		return 0, 0, nil, err
	}
	return tag, status, payload, nil
}

// flush pushes buffered request frames onto the wire.
func (c *Client) flush() {
	c.wmu.Lock()
	err := c.bw.Flush()
	c.wmu.Unlock()
	if err != nil && c.v2 {
		c.fail(err)
	}
}

// reader demuxes response frames to their tags until the connection dies,
// then fails every outstanding call. The buffered reader matters: the
// server batches responses, so one syscall here drains many frames.
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
			putBuf(payload)
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

// call1 performs one serial v1 round-trip and returns the response's
// status and pooled payload.
func (c *Client) call1(op byte, a args, payload []byte) (byte, []byte, error) {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	err := c.send(0, op, a, payload)
	if err == nil {
		err = c.bw.Flush()
	}
	if err != nil {
		return 0, nil, err
	}
	_, status, body, err := c.recv()
	return status, body, err
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

// Read returns n sectors starting at lba from the live image.
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
	cl := c.GoSnapCreate()
	b, err := cl.Wait()
	if err != nil {
		return 0, err
	}
	if len(b) != 8 {
		cl.release()
		return 0, fmt.Errorf("srv: snap-create response %d bytes, want 8", len(b))
	}
	id := be64(b)
	cl.release()
	return id, nil
}

// SnapDelete tombstones a snapshot.
func (c *Client) SnapDelete(id uint64) error {
	return c.GoSnapDelete(id).waitDiscard()
}

// SnapRead returns n sectors starting at lba from snapshot id's frozen
// image.
func (c *Client) SnapRead(id uint64, lba int64, n int) ([]byte, error) {
	return c.GoSnapRead(id, lba, n).Wait()
}

// Stats fetches the server's aggregate statistics.
func (c *Client) Stats() (ServerStats, error) {
	cl := c.do(opStats, args{}, nil)
	b, err := cl.Wait()
	if err != nil {
		return ServerStats{}, err
	}
	var st ServerStats
	uerr := json.Unmarshal(b, &st)
	cl.release()
	if uerr != nil {
		return ServerStats{}, fmt.Errorf("srv: stats decode: %w", uerr)
	}
	return st, nil
}

// Shutdown asks the server to stop. The call returns once the server has
// acknowledged; Serve on the server side returns after in-flight work
// drains.
func (c *Client) Shutdown() error {
	return c.do(opShutdown, args{}, nil).waitDiscard()
}

package srv

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"iosnap/internal/iosnap"
	"iosnap/internal/shard"
	"iosnap/internal/sim"
)

// ServerStats is the stats-op response: an aggregate view of the service
// plus the per-shard counters, JSON-encoded on the wire so the CLI can
// print it without sharing Go types beyond this package.
type ServerStats struct {
	Shards        int
	SectorSize    int
	Sectors       int64
	LiveSnapshots int
	MappedSectors int64
	PerShard      []iosnap.Stats
	// PerShardVirtual is each shard's virtual clock at the stats barrier:
	// the skew between entries is the load imbalance across shards.
	PerShardVirtual []sim.Time
	// ShardLockWait is each shard's mutex wait, wall time from asking for
	// the lock to holding it: p50, p99 and max since the service started.
	ShardLockWait []shard.LockWait
	// Snapshot-view cache counters (see viewCache).
	ViewCacheHits          int64
	ViewCacheMisses        int64
	ViewCacheExpiries      int64
	ViewCacheInvalidations int64
	ViewCacheLive          int
}

// Server serves the block protocol over a listener, executing every
// request against one shard.Service. Connections are handled concurrently.
// Within a connection, the goroutine that reads the frames also runs the
// small requests to completion, in arrival order, and writes their
// responses; only a request that carries more than inlineMax bytes (in its
// payload or in its response) gets a goroutine of its own, at most Window
// of them per connection, so a large transfer never blocks what follows
// it. A graceful shutdown (Shutdown call or shutdown op) stops the accept
// loop, waits for in-flight requests to finish, drains the snapshot-view
// cache, and returns from Serve with the service still open, so the owner
// can checkpoint and persist it.
type Server struct {
	svc *shard.Service
	ln  net.Listener

	// Window bounds in-flight handler goroutines per connection. Zero means
	// defaultWindow. Set before Serve.
	Window int
	// ViewTTL is how long an idle activated snapshot view stays cached
	// before the janitor deactivates it. Zero or negative means
	// defaultViewTTL. Set before Serve.
	ViewTTL time.Duration

	views *viewCache

	// beforeHandler, when non-nil, runs at the top of every handler
	// goroutine. Test hook: stalling it holds a large request in flight.
	beforeHandler func()

	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	stopping bool
	wg       sync.WaitGroup
}

// defaultViewTTL keeps an idle activated view alive this long by default.
const defaultViewTTL = 2 * time.Second

// NewServer wraps svc behind ln. The server does not own svc: Serve
// returns with the service open, and closing it (checkpointing the FTLs)
// is the caller's job.
func NewServer(svc *shard.Service, ln net.Listener) *Server {
	return &Server{svc: svc, ln: ln, conns: make(map[net.Conn]struct{})}
}

// Addr returns the listener address (useful with ":0" listeners).
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

func (s *Server) window() int {
	if s.Window > 0 {
		return s.Window
	}
	return defaultWindow
}

// Serve accepts connections until Shutdown is called (directly or via the
// shutdown op), then waits for in-flight connections to drain. It returns
// nil on a clean shutdown. When Accept fails for any other reason the
// error is returned — but only after in-flight connections drained there
// too: the caller's next move is closing the service, and handler
// goroutines must not race it.
func (s *Server) Serve() error {
	ttl := s.ViewTTL
	if ttl <= 0 {
		ttl = defaultViewTTL
	}
	s.views = newViewCache(s.svc, ttl)
	jstop := make(chan struct{})
	defer close(jstop)
	go s.janitor(jstop)
	for {
		c, err := s.ln.Accept()
		if err != nil {
			s.mu.Lock()
			stopping := s.stopping
			if !stopping {
				// Abnormal accept failure: unblock every connection's reader
				// so the drain below terminates.
				for c := range s.conns {
					c.Close()
				}
			}
			s.mu.Unlock()
			s.wg.Wait()
			s.views.drain()
			if stopping {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.stopping {
			s.mu.Unlock()
			c.Close()
			continue
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(c)
			s.mu.Lock()
			delete(s.conns, c)
			s.mu.Unlock()
			c.Close()
		}()
	}
}

// janitor periodically expires idle cached views until Serve returns.
func (s *Server) janitor(stop <-chan struct{}) {
	period := s.views.ttl / 2
	if period < 10*time.Millisecond {
		period = 10 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.views.sweep()
		case <-stop:
			return
		}
	}
}

// Shutdown stops the accept loop. In-flight requests finish; idle
// connections are closed. Safe to call more than once and from request
// handlers. It does not wait — Serve's return is the completion signal.
func (s *Server) Shutdown() {
	s.stopAccepting()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Close connections so their readers unblock. A request being
	// executed right now still writes its response: the write races the
	// close harmlessly (worst case the client sees a reset after its
	// response, exactly like a server crash after commit).
	for c := range s.conns {
		c.Close()
	}
}

// stopAccepting closes the listener: from here on a dial is refused.
func (s *Server) stopAccepting() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.stopping {
		s.stopping = true
		s.ln.Close()
	}
}

// inlineMax is the most bytes a request may carry — in its payload or in
// its response — and still run on the connection's reader goroutine. Below
// it an op is cheaper than the hand-off to another goroutine; several
// times above it an op is long enough that the connection's socket copies
// should overlap its FTL work and that a read behind it should not wait
// for it. A quarter of the write buffer, so that several inline responses
// still share one flush.
const inlineMax = connBuf / 4

// conn is one client connection. The reader goroutine (serveConn) owns br;
// bw is shared with the handler goroutines under wmu.
type conn struct {
	s  *Server
	nc net.Conn
	br *bufio.Reader

	wmu sync.Mutex
	bw  *bufio.Writer
}

// serveConn runs one connection: complete the handshake, then read a frame,
// execute it (here, or on a handler goroutine if it is large), repeat.
// Responses collect in bw and go out when the reader is about to block; a
// handler flushes after its own response. A protocol error (as opposed to
// an op error, which is reported in-band) ends the connection. The ordering
// this gives a client is the contract in proto.go.
func (s *Server) serveConn(nc net.Conn) {
	c := &conn{s: s, nc: nc, br: bufio.NewReaderSize(nc, connBuf), bw: bufio.NewWriterSize(nc, connBuf)}
	window, ok := c.handshake()
	if !ok {
		return
	}
	// Handler admission: a client past its window simply stalls in TCP —
	// flow control, not an error.
	sem := make(chan struct{}, window)
	var handlers sync.WaitGroup
	defer func() {
		handlers.Wait()
		c.flush()
	}()
	for {
		hdr, err := c.peek(4)
		if err != nil {
			return
		}
		n := int(be32(hdr))
		if n > maxFrame || n < 5 { // shorter than tag+op: no tag to answer on
			return
		}
		// A frame short enough to be a small request is parsed where it
		// lies in br; a longer one is read into a pooled buffer.
		var req, pooled []byte
		if n <= 5+maxArgs+inlineMax {
			frame, err := c.peek(4 + n)
			if err != nil {
				return
			}
			req = frame[4:]
		} else {
			c.flushUnless(4 + n)
			c.br.Discard(4)
			pooled = getBuf(n)
			if _, err := io.ReadFull(c.br, pooled); err != nil {
				return
			}
			req = pooled
		}
		tag, op, body := be32(req), req[4], req[5:]
		if s.carried(op, body) > inlineMax {
			if pooled == nil {
				pooled = getBuf(len(body))
				copy(pooled, body)
				body = pooled
				c.br.Discard(4 + n)
			}
			c.flush() // the window may block, and a large op is long: answer what came before it now
			sem <- struct{}{}
			handlers.Add(1)
			go func() {
				defer handlers.Done()
				defer func() { <-sem }()
				if s.beforeHandler != nil {
					s.beforeHandler()
				}
				c.handle(tag, op, body, true)
				putBuf(pooled)
			}()
			continue
		}
		stop := c.handle(tag, op, body, false)
		if pooled != nil {
			putBuf(pooled)
		} else {
			c.br.Discard(4 + n)
		}
		if stop {
			return
		}
	}
}

// handshake reads the connection's first frame, which must be a valid
// hello, and queues the acknowledgement — the two untagged frames of a
// connection. It returns the granted window. Any other first frame, a
// request of the retired untagged protocol included, gets no answer.
func (c *conn) handshake() (window int, ok bool) {
	hdr, err := c.br.Peek(4)
	if err != nil || int(be32(hdr)) != helloLen {
		return 0, false
	}
	frame, err := c.br.Peek(4 + helloLen)
	if err != nil || frame[4] != opHello {
		return 0, false
	}
	_, want, ok := parseHello(frame[5:])
	if !ok {
		return 0, false
	}
	c.br.Discard(4 + helloLen)
	window = c.s.window()
	if want > 0 && want < window {
		window = want
	}
	var ack [13]byte // [u32 len][u8 status][u32 version][u32 window]
	binary.BigEndian.PutUint32(ack[0:], 9)
	ack[4] = statusOK
	binary.BigEndian.PutUint32(ack[5:], protoVersion2)
	binary.BigEndian.PutUint32(ack[9:], uint32(window))
	c.bw.Write(ack[:]) // into the empty buffer; the loop's first peek flushes it
	return window, true
}

// peek returns the next n bytes of the request stream without consuming
// them.
func (c *conn) peek(n int) ([]byte, error) {
	c.flushUnless(n)
	return c.br.Peek(n)
}

// flushUnless flushes the pending responses unless n request bytes are
// already buffered: the reader is about to block, and nothing else will
// put what it has answered so far on the wire.
func (c *conn) flushUnless(n int) {
	if c.br.Buffered() < n {
		c.flush()
	}
}

func (c *conn) flush() {
	c.wmu.Lock()
	c.finish(nil, true)
	c.wmu.Unlock()
}

// finish ends a write under wmu: flush if asked, and on any error close
// the connection, which is what unwinds the reader.
func (c *conn) finish(err error, flush bool) {
	if err == nil && flush {
		err = c.bw.Flush()
	}
	if err != nil {
		c.nc.Close()
	}
}

// reserve returns n writable bytes at the tail of bw's buffer (flushing
// first if they do not fit) for put to commit. Caller holds wmu.
func (c *conn) reserve(n int) []byte {
	if c.bw.Available() < n {
		c.finish(nil, true)
		if c.bw.Available() < n {
			return make([]byte, n) // the flush failed: bw refuses every write from here on
		}
	}
	return c.bw.AvailableBuffer()[:n]
}

// put is the one response encoder: it stamps the header into the first
// respHdr bytes of frame and writes frame, then rest. Caller holds wmu.
func (c *conn) put(frame, rest []byte, tag uint32, status byte, flush bool) {
	binary.BigEndian.PutUint32(frame, uint32(len(frame)-4+len(rest)))
	binary.BigEndian.PutUint32(frame[4:], tag)
	frame[respHdr-1] = status
	_, err := c.bw.Write(frame)
	if err == nil && len(rest) > 0 {
		_, err = c.bw.Write(rest)
	}
	c.finish(err, flush)
}

// reply writes a response whose body already exists.
func (c *conn) reply(tag uint32, status byte, body []byte, flush bool) {
	c.wmu.Lock()
	c.put(c.reserve(respHdr), body, tag, status, flush)
	c.wmu.Unlock()
}

// handle executes one request and writes its response; flush says the
// caller is a handler goroutine, which puts its own response on the wire.
// It reports whether the connection should stop reading (shutdown op).
func (c *conn) handle(tag uint32, op byte, body []byte, flush bool) (stop bool) {
	var result []byte
	var err error
	switch op {
	case opRead, opSnapRead:
		if err = c.read(tag, op, body, flush); err == nil {
			return false
		}
	case opShutdown:
		// Refuse new connections, then acknowledge, then stop: a client
		// holding the ack finds the port closed, and Shutdown closes every
		// connection, so the ack must already be on the wire.
		c.s.stopAccepting()
		c.reply(tag, statusOK, nil, true)
		c.s.Shutdown()
		return true
	default:
		result, err = c.s.dispatch(op, body)
	}
	if err != nil {
		c.reply(tag, statusErr, []byte(err.Error()), flush)
	} else {
		c.reply(tag, statusOK, result, flush)
	}
	return false
}

// carried is the number of payload bytes a request moves, in whichever
// direction: what decides between inline and handler execution. A
// malformed request carries nothing and is refused inline.
func (s *Server) carried(op byte, body []byte) int64 {
	switch {
	case op == opWrite && len(body) > 8:
		return int64(len(body) - 8)
	case op == opRead && len(body) == 12:
		return int64(be32(body[8:])) * int64(s.svc.SectorSize())
	case op == opSnapRead && len(body) == 20:
		return int64(be32(body[16:])) * int64(s.svc.SectorSize())
	}
	return 0
}

// read serves a read or snap-read and writes the success response itself;
// an error is returned for the caller to report in-band. A small read is
// filled by the FTL straight into bw's buffer — one copy from NAND to the
// socket buffer — under wmu, and nothing of it is committed to the buffer
// until it succeeded. A large one is filled into a pooled frame first.
func (c *conn) read(tag uint32, op byte, body []byte, flush bool) error {
	s := c.s
	name, at := "read", 0
	if op == opSnapRead {
		name, at = "snap-read", 8
	}
	if len(body) != at+12 {
		return fmt.Errorf("srv: %s body %d bytes, want %d", name, len(body), at+12)
	}
	lba, n := int64(be64(body[at:])), int64(be32(body[at+8:]))
	size := n * int64(s.svc.SectorSize())
	if n <= 0 || size > maxBody {
		return fmt.Errorf("srv: %s of %d sectors out of range", name, n)
	}
	var view *shard.ServiceView
	var release func()
	if op == opSnapRead {
		var err error
		if view, release, err = s.views.acquire(iosnap.SnapshotID(be64(body))); err != nil {
			return err
		}
	}
	if size > inlineMax {
		frame := getBuf(respHdr + int(size))
		defer putBuf(frame)
		if err := s.fill(view, release, lba, frame[respHdr:]); err != nil {
			return err
		}
		c.wmu.Lock()
		defer c.wmu.Unlock()
		c.put(frame, nil, tag, statusOK, flush)
		return nil
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	frame := c.reserve(respHdr + int(size))
	if err := s.fill(view, release, lba, frame[respHdr:]); err != nil {
		return err
	}
	c.put(frame, nil, tag, statusOK, flush)
	return nil
}

// fill reads dst from the live image or, when view is non-nil, from the
// snapshot, whose reference it then releases.
func (s *Server) fill(view *shard.ServiceView, release func(), lba int64, dst []byte) error {
	if view == nil {
		return s.svc.Read(lba, dst)
	}
	defer release()
	return view.Read(lba, dst)
}

// dispatch executes one op other than the reads and shutdown and returns
// its response body.
func (s *Server) dispatch(op byte, body []byte) ([]byte, error) {
	switch op {
	case opPing:
		return nil, nil

	case opWrite:
		if len(body) < 8 {
			return nil, fmt.Errorf("srv: write body %d bytes, want >= 8", len(body))
		}
		data := body[8:]
		if ss := s.svc.SectorSize(); len(data) == 0 || len(data)%ss != 0 {
			return nil, fmt.Errorf("srv: write payload of %d bytes is not a positive multiple of the %d-byte sector size", len(data), ss)
		}
		return nil, s.svc.Write(int64(be64(body)), data)

	case opTrim:
		if len(body) != 16 {
			return nil, fmt.Errorf("srv: trim body %d bytes, want 16", len(body))
		}
		return nil, s.svc.Trim(int64(be64(body)), int64(be64(body[8:])))

	case opSnapCreate:
		id, err := s.svc.CreateSnapshot()
		if err != nil {
			return nil, err
		}
		return putU64(uint64(id)), nil

	case opSnapDelete:
		if len(body) != 8 {
			return nil, fmt.Errorf("srv: snap-delete body %d bytes, want 8", len(body))
		}
		id := iosnap.SnapshotID(be64(body))
		// Drop the cached activation first: the delete must not observe it,
		// and the snapshot's blocks must actually become reclaimable.
		s.views.invalidate(id)
		return nil, s.svc.DeleteSnapshot(id)

	case opStats:
		sum := s.svc.Summary()
		st := ServerStats{
			Shards:          sum.Shards,
			SectorSize:      sum.SectorSize,
			Sectors:         sum.Sectors,
			LiveSnapshots:   sum.LiveSnapshots,
			MappedSectors:   sum.MappedSectors,
			PerShard:        sum.PerShard,
			PerShardVirtual: sum.Virtual,
			ShardLockWait:   sum.LockWait,
		}
		st.ViewCacheHits, st.ViewCacheMisses, st.ViewCacheExpiries,
			st.ViewCacheInvalidations, st.ViewCacheLive = s.views.counters()
		return json.Marshal(st)

	default:
		return nil, fmt.Errorf("srv: unknown op %d", op)
	}
}

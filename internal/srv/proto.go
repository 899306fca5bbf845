// Package srv is the storage-service front-end: a long-running TCP block
// server that multiplexes many client connections onto one shard.Service,
// plus the matching client. A connection is a pipeline: requests carry a
// 32-bit tag, many are in flight at once (bounded by a per-connection
// window), and responses return in completion order — a window of requests
// pays one round-trip, not one each, and a large transfer does not hold up
// what follows it.
package srv

import (
	"encoding/binary"
	"math/bits"
	"sync"
	"unsafe"
)

// Wire format. Every frame, in both directions, is
//
//	[u32 big-endian length][payload of exactly that many bytes]
//
// Handshake. The client's first frame is the hello, the one untagged
// request: [opHello]["iosnapv2"][u32 maxVersion][u32 wantWindow]. The
// server answers with one untagged frame, [statusOK][u32 version][u32
// window], and every later frame is tagged. A connection whose first frame
// is anything but a valid hello is closed without an answer; a client whose
// hello is answered by anything but that acknowledgement gives up (Dial
// returns an error).
//
// Requests and responses. A request payload is [u32 tag][u8 op][body]; a
// response payload is [u32 tag][u8 status][body], where status 0 is success
// (body is the op's result) and status 1 is an error (body is the error
// text). Tags are chosen by the client; the server answers each tag exactly
// once, and at most `window` requests may be in flight. A frame too short to
// carry tag and op, or longer than maxFrame, ends the connection; every
// other failure is reported in-band on the request's tag.
//
// Ordering. The requests of one connection that carry at most inlineMax
// bytes — in their payload or in their response — take effect in arrival
// order: a read pipelined behind a write of the same LBA observes it. A
// request that carries more runs beside the requests sent after it and may
// be overtaken by them, so a client that needs a large transfer ordered
// against anything waits for its response first. Responses return in
// completion order, and nothing is promised between the requests of
// different connections.
//
// Op bodies (all integers big-endian):
//
//	ping        ->                               <- (empty)
//	read        -> u64 lba, u32 sectors          <- data
//	write       -> u64 lba, data                 <- (empty)
//	trim        -> u64 lba, u64 sectors          <- (empty)
//	snapCreate  ->                               <- u64 id
//	snapDelete  -> u64 id                        <- (empty)
//	snapRead    -> u64 id, u64 lba, u32 sectors  <- data
//	stats       ->                               <- JSON ServerStats
//	shutdown    ->                               <- (empty; server stops)
const (
	opPing       byte = 1
	opRead       byte = 2
	opWrite      byte = 3
	opTrim       byte = 4
	opSnapCreate byte = 5
	opSnapDelete byte = 6
	opSnapRead   byte = 7
	opStats      byte = 8
	opShutdown   byte = 9
	opHello      byte = 10
)

const (
	statusOK  byte = 0
	statusErr byte = 1
)

// protoVersion2 is the protocol version this package speaks, the one the
// hello and its acknowledgement name.
const protoVersion2 = 2

// helloMagic opens the hello's body: a first frame without it is not a
// peer of this protocol.
const helloMagic = "iosnapv2"

// helloLen is the hello's payload length: op, magic, version, window.
const helloLen = 1 + len(helloMagic) + 8

// defaultWindow bounds in-flight requests per connection when neither side
// asks for a specific window.
const defaultWindow = 128

// maxFrame bounds a single frame. It caps request sizes (a hostile or
// buggy peer cannot make the server allocate gigabytes) and therefore the
// largest single read/write a client may issue.
const maxFrame = 1 << 26 // 64 MiB

// respHdr is a response's fixed prefix: [u32 len][u32 tag][u8 status].
const respHdr = 9

// maxBody is the largest op result that fits a response frame, which
// spends 4 tag bytes + 1 status byte of its payload.
const maxBody = maxFrame - 5

// connBuf is the size of the buffered writer on each end of a connection,
// of the server's buffered reader, and the most the client's receive arena
// takes in per read: a deep pipeline delivers many frames per TCP segment,
// and one syscall should move them all. A response payload of at most
// connBuf bytes reaches the client's caller where it landed.
const connBuf = 64 << 10

// --- pooled frame buffers ---------------------------------------------------
//
// The server's frame and payload buffers are pooled in power-of-two size
// classes. The client keeps no pool: a read's payload is its caller's for
// good, so nothing would come back to it. getBuf returns a slice of exactly
// the requested length, putBuf recycles any buffer whose capacity is
// exactly a class size (so a slice that grew elsewhere is simply left for
// the GC rather than poisoning a class). A pool entry is the pointer to the
// buffer's first byte — its class implies the length — so neither
// direction allocates a slice header.

const (
	minBufShift = 9  // 512 B
	maxBufShift = 20 // 1 MiB; larger frames allocate fresh
	bufClasses  = maxBufShift - minBufShift + 1
)

var bufPools [bufClasses]sync.Pool

// getBuf returns a length-n slice backed by a pooled class buffer (or a
// fresh allocation for n beyond the largest class); nil for n == 0.
func getBuf(n int) []byte {
	if n == 0 {
		return nil
	}
	if n > 1<<maxBufShift {
		return make([]byte, n)
	}
	shift := minBufShift
	for n > 1<<shift {
		shift++
	}
	if p := bufPools[shift-minBufShift].Get(); p != nil {
		return unsafe.Slice(p.(*byte), 1<<shift)[:n]
	}
	return make([]byte, n, 1<<shift)
}

// putBuf recycles b if (and only if) its capacity is exactly a pool class
// size. Callers must own b outright: no live sub-slice may survive the put.
func putBuf(b []byte) {
	c := cap(b)
	if c < 1<<minBufShift || c > 1<<maxBufShift || c&(c-1) != 0 {
		return
	}
	bufPools[bits.TrailingZeros(uint(c))-minBufShift].Put(unsafe.SliceData(b))
}

// args is a request's fixed-width fields, built by value on the caller's
// stack: args{}.u64(lba).u32(n).
type args struct {
	b [maxArgs]byte
	n int
}

// maxArgs is the widest fixed-width request body (snap-read's).
const maxArgs = 20

func (a args) u64(v uint64) args {
	binary.BigEndian.PutUint64(a.b[a.n:], v)
	a.n += 8
	return a
}

func (a args) u32(v uint32) args {
	binary.BigEndian.PutUint32(a.b[a.n:], v)
	a.n += 4
	return a
}

// helloArgs builds the hello's body (after the op byte).
func helloArgs(wantWindow int) args {
	var a args
	a.n = copy(a.b[:], helloMagic)
	return a.u32(protoVersion2).u32(uint32(wantWindow))
}

// parseHello validates a hello body and returns the peer's max version and
// requested window.
func parseHello(body []byte) (version, window int, ok bool) {
	if len(body) != len(helloMagic)+8 || string(body[:len(helloMagic)]) != helloMagic {
		return 0, 0, false
	}
	return int(be32(body[len(helloMagic):])), int(be32(body[len(helloMagic)+4:])), true
}

func be64(b []byte) uint64 { return binary.BigEndian.Uint64(b) }
func be32(b []byte) uint32 { return binary.BigEndian.Uint32(b) }

func putU64(v uint64) []byte {
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], v)
	return b[:]
}

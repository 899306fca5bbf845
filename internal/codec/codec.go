// Package codec is the one framing of every record the repository stores
// or ships: checkpoint streams, translation pages, snapshot transfer
// streams and their sidecars, and device images. A record is one or more
// frames,
//
//	[u8 type][u32 length][length bytes of payload][u32 CRC32]
//
// little-endian, the CRC32 (IEEE) taken over the type, the length and the
// payload. Payload fields are little-endian too: Writer appends them and
// Reader reads them back with every count checked against the bytes
// present. Type 0 is no frame type, so zero padding never opens as a frame,
// and each decoder names the type it expects, so a record handed to the
// wrong decoder is refused before its payload is read. An encoding that is
// not this one — whatever an older build wrote — is refused, never read.
package codec

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"slices"
)

// HeadLen and TailLen are the bytes a frame adds before and after its
// payload; Overhead is both.
const (
	HeadLen  = 1 + 4
	TailLen  = 4
	Overhead = HeadLen + TailLen
)

// MaxPayload is the limit of a caller that bounds frames by nothing but
// its input.
const MaxPayload = math.MaxInt

// Frame types, one list for every format.
const (
	// Device images (internal/nand): a header, one frame per touched
	// segment, and an end frame of totals.
	ImageHeader byte = 1 + iota
	ImageSegment
	ImageEnd
	// The checkpoint stream (internal/logcore): a generation frame — the
	// checkpoint ID and the section count — then one frame per section,
	// typed by what the section holds (internal/iosnap).
	CkptGeneration
	CkptMap
	CkptGTD
	CkptTree
	CkptAlias
	CkptValid
	// A translation page of the paged map (internal/mapcache).
	MapPage
	// Snapshot transfer (internal/xport): a stream is a manifest frame,
	// chunk frames and an end frame; a .gen sidecar is one manifest frame.
	Manifest
	Chunk
	StreamEnd
)

var (
	ErrTruncated   = errors.New("codec: truncated")
	ErrTooLong     = errors.New("codec: frame longer than its limit")
	ErrBadChecksum = errors.New("codec: checksum mismatch")
)

// Cut returns the frame at the front of b — its type, its payload, and how
// many bytes of b it takes — without checking its CRC (Check does, so a
// caller may cut frames on one goroutine and check them on others). A
// payload longer than limit is ErrTooLong, and a frame b holds only part of
// ErrTruncated. The payload is capped at its length: appending to it never
// writes the CRC.
func Cut(b []byte, limit int) (typ byte, payload []byte, n int, err error) {
	if len(b) < HeadLen {
		return 0, nil, 0, ErrTruncated
	}
	size := int64(binary.LittleEndian.Uint32(b[1:]))
	if size > int64(limit) {
		return 0, nil, 0, ErrTooLong
	}
	if size > int64(len(b)-Overhead) {
		return 0, nil, 0, ErrTruncated
	}
	end := HeadLen + int(size)
	return b[0], b[HeadLen:end:end], end + TailLen, nil
}

// Check verifies the CRC32 of frame, a whole frame as Cut measured it.
func Check(frame []byte) error {
	end := len(frame) - TailLen
	if crc32.ChecksumIEEE(frame[:end]) != binary.LittleEndian.Uint32(frame[end:]) {
		return ErrBadChecksum
	}
	return nil
}

// Open is Cut, then Check.
func Open(b []byte, limit int) (typ byte, payload []byte, n int, err error) {
	typ, payload, n, err = Cut(b, limit)
	if err == nil {
		err = Check(b[:n])
	}
	if err != nil {
		return 0, nil, 0, err
	}
	return typ, payload, n, nil
}

// Writer appends frames and the little-endian fields of their payloads.
type Writer struct{ B []byte }

// Begin appends the head of a frame of type typ, its length left for End,
// and returns where the frame starts.
func (w *Writer) Begin(typ byte) int {
	start := len(w.B)
	w.B = append(w.B, typ, 0, 0, 0, 0)
	return start
}

// End completes the frame Begin started at start with what has been
// appended since: it fills in the length and appends the CRC32.
func (w *Writer) End(start int) {
	binary.LittleEndian.PutUint32(w.B[start+1:], uint32(len(w.B)-start-HeadLen))
	w.B = binary.LittleEndian.AppendUint32(w.B, crc32.ChecksumIEEE(w.B[start:]))
}

// Frame appends a whole frame of type typ around payload.
func (w *Writer) Frame(typ byte, payload []byte) {
	start := w.Begin(typ)
	w.B = append(w.B, payload...)
	w.End(start)
}

func (w *Writer) U8(v uint8)   { w.B = append(w.B, v) }
func (w *Writer) U32(v uint32) { w.B = binary.LittleEndian.AppendUint32(w.B, v) }
func (w *Writer) U64(v uint64) { w.B = binary.LittleEndian.AppendUint64(w.B, v) }

func (w *Writer) Bool(v bool) {
	var b uint8
	if v {
		b = 1
	}
	w.U8(b)
}

// U64s appends every element of vs as U64 would, growing the buffer at most
// once (a validity stream is bitmap pages of 512 words each).
func (w *Writer) U64s(vs []uint64) {
	w.B = slices.Grow(w.B, 8*len(vs))
	for _, v := range vs {
		w.B = binary.LittleEndian.AppendUint64(w.B, v)
	}
}

// Bytes appends p behind its u32 length.
func (w *Writer) Bytes(p []byte) {
	w.U32(uint32(len(p)))
	w.B = append(w.B, p...)
}

// Reader decodes what Writer produced; the first read past the end
// latches ErrTruncated into Err, and zero values flow after it.
type Reader struct {
	B   []byte
	off int
	err error
}

// next returns the next n bytes, or nil once the reader has failed.
func (r *Reader) next(n int) []byte {
	if r.err != nil || n > len(r.B)-r.off {
		r.err = ErrTruncated
		return nil
	}
	v := r.B[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

func (r *Reader) U8() uint8 {
	if b := r.next(1); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) U32() uint32 {
	if b := r.next(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U64() uint64 {
	if b := r.next(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

func (r *Reader) Bool() bool { return r.U8() != 0 }

// Raw returns the next n bytes as they lie, capped at n.
func (r *Reader) Raw(n int) []byte { return r.next(n) }

// Bytes reads what Writer.Bytes wrote: the bytes, as they lie, capped at
// their length.
func (r *Reader) Bytes() []byte { return r.next(int(r.U32())) }

// Err reports the first framing violation seen by this reader.
func (r *Reader) Err() error { return r.err }

// Rest reports how many bytes remain unread.
func (r *Reader) Rest() int { return len(r.B) - r.off }

// Count validates an element count the caller just read against the bytes
// that remain: n records of at least recSize bytes each must fit, or the
// reader fails (ErrTruncated) and Count returns 0. Records arrive from
// image files and from the network, so no decoder may size an allocation
// or a loop from a count the bytes have not paid for.
func (r *Reader) Count(n uint64, recSize int) int {
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Rest()/recSize) {
		r.err = ErrTruncated
		return 0
	}
	return int(n)
}

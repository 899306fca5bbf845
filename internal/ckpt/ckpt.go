// Package ckpt is the chunk codec of ioSnap's checkpoints.
//
// A checkpoint is an opaque byte stream of typed sections, framed with a
// magic, a version, the checkpoint's identity (ID + the log sequence number
// it captures), an explicit length, and an FNV-64a checksum, then split
// into sector-sized chunks for programming onto the log. Every chunk is
// prefixed with the checkpoint ID so recovery can group chunks by
// generation: two checkpoints interrupted at the right moments can leave
// chunks of *different* generations on the device, and an index-set check
// alone would happily stitch them into a complete-looking, corrupt stream.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
)

// Section is one typed region of a checkpoint stream. Kind is
// FTL-defined; the codec only frames it.
type Section struct {
	Kind uint8
	Data []byte
}

const (
	version = 1
	// ChunkPrefix is the per-chunk generation tag: the checkpoint ID,
	// little-endian, at offset 0 of every chunk.
	ChunkPrefix = 8

	headerLen   = 4 + 1 + 8 + 8 + 4 + 4 // magic ver id seq totalLen nsec
	checksumLen = 8
)

var magic = [4]byte{'i', 'C', 'k', 'p'}

var (
	ErrBadMagic    = errors.New("ckpt: bad magic")
	ErrBadVersion  = errors.New("ckpt: unsupported version")
	ErrTruncated   = errors.New("ckpt: truncated stream")
	ErrBadChecksum = errors.New("ckpt: checksum mismatch")
	ErrBadChunk    = errors.New("ckpt: malformed chunk")
)

// Encode frames sections into a self-checking stream.
func Encode(ckptID, ckptSeq uint64, secs []Section) []byte {
	total := headerLen + checksumLen
	for _, s := range secs {
		total += 1 + 4 + len(s.Data)
	}
	b := make([]byte, 0, total)
	b = append(b, magic[:]...)
	b = append(b, version)
	b = binary.LittleEndian.AppendUint64(b, ckptID)
	b = binary.LittleEndian.AppendUint64(b, ckptSeq)
	b = binary.LittleEndian.AppendUint32(b, uint32(total))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(secs)))
	for _, s := range secs {
		b = append(b, s.Kind)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Data)))
		b = append(b, s.Data...)
	}
	return binary.LittleEndian.AppendUint64(b, checksum(b))
}

// SingleBody is where a one-section stream's section body starts: after
// the stream header and the section's kind and length.
const SingleBody = headerLen + 5

// SealSingle frames a one-section stream in place, without allocating:
// b[SingleBody:SingleBody+n] already holds the section body, and SealSingle
// writes the stream header and section frame before it and the checksum
// after it. It returns the stream's length; the bytes are those
// Encode(ckptID, ckptSeq, []Section{{kind, body}}) returns.
func SealSingle(b []byte, ckptID, ckptSeq uint64, kind uint8, n int) int {
	total := SingleBody + n + checksumLen
	copy(b, magic[:])
	b[4] = version
	binary.LittleEndian.PutUint64(b[5:], ckptID)
	binary.LittleEndian.PutUint64(b[13:], ckptSeq)
	binary.LittleEndian.PutUint32(b[21:], uint32(total))
	binary.LittleEndian.PutUint32(b[25:], 1)
	b[headerLen] = kind
	binary.LittleEndian.PutUint32(b[headerLen+1:], uint32(n))
	binary.LittleEndian.PutUint64(b[total-checksumLen:], checksum(b[:total-checksumLen]))
	return total
}

// checksum is the stream checksum: FNV-64a over everything before it.
func checksum(b []byte) uint64 {
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64()
}

// open validates a stream's framing and checksum and returns its identity,
// its checksummed bytes and its section count.
func open(stream []byte) (ckptID, ckptSeq uint64, body []byte, nsec int, err error) {
	if len(stream) < headerLen+checksumLen {
		return 0, 0, nil, 0, ErrTruncated
	}
	if [4]byte(stream[:4]) != magic {
		return 0, 0, nil, 0, ErrBadMagic
	}
	if stream[4] != version {
		return 0, 0, nil, 0, fmt.Errorf("%w: %d", ErrBadVersion, stream[4])
	}
	ckptID = binary.LittleEndian.Uint64(stream[5:])
	ckptSeq = binary.LittleEndian.Uint64(stream[13:])
	total := int(binary.LittleEndian.Uint32(stream[21:]))
	nsec = int(binary.LittleEndian.Uint32(stream[25:]))
	if total < headerLen+checksumLen || total > len(stream) {
		return 0, 0, nil, 0, ErrTruncated
	}
	body = stream[:total-checksumLen]
	if checksum(body) != binary.LittleEndian.Uint64(stream[total-checksumLen:]) {
		return 0, 0, nil, 0, ErrBadChecksum
	}
	return ckptID, ckptSeq, body, nsec, nil
}

// DecodeSingle is Decode for a stream that must hold exactly one section
// filling it to the checksum — what SealSingle writes — and allocates
// nothing on success.
func DecodeSingle(stream []byte) (ckptID, ckptSeq uint64, sec Section, err error) {
	ckptID, ckptSeq, body, nsec, err := open(stream)
	if err != nil {
		return 0, 0, Section{}, err
	}
	if nsec != 1 {
		return 0, 0, Section{}, fmt.Errorf("ckpt: stream holds %d sections, want 1", nsec)
	}
	if len(body) < SingleBody {
		return 0, 0, Section{}, ErrTruncated
	}
	if n := binary.LittleEndian.Uint32(body[headerLen+1:]); uint64(n) != uint64(len(body)-SingleBody) {
		return 0, 0, Section{}, ErrTruncated
	}
	return ckptID, ckptSeq, Section{Kind: body[headerLen], Data: body[SingleBody:]}, nil
}

// Decode validates framing and checksum and returns the sections. The
// input may carry trailing padding (Join concatenates whole chunks).
func Decode(stream []byte) (ckptID, ckptSeq uint64, secs []Section, err error) {
	ckptID, ckptSeq, body, nsec, err := open(stream)
	if err != nil {
		return 0, 0, nil, err
	}
	off := headerLen
	if nsec > (len(body)-off)/5 { // each section costs at least its 5-byte frame
		return 0, 0, nil, ErrTruncated
	}
	secs = make([]Section, 0, nsec)
	for i := 0; i < nsec; i++ {
		if off+5 > len(body) {
			return 0, 0, nil, ErrTruncated
		}
		kind := body[off]
		n := int(binary.LittleEndian.Uint32(body[off+1:]))
		off += 5
		if n < 0 || off+n > len(body) {
			return 0, 0, nil, ErrTruncated
		}
		secs = append(secs, Section{Kind: kind, Data: body[off : off+n]})
		off += n
	}
	return ckptID, ckptSeq, secs, nil
}

// Split cuts a stream into sector-sized chunks, each prefixed with the
// checkpoint ID. The last chunk is zero-padded; Decode's explicit length
// makes the padding harmless.
func Split(ckptID uint64, stream []byte, sectorSize int) ([][]byte, error) {
	payload := sectorSize - ChunkPrefix
	if payload <= 0 {
		return nil, fmt.Errorf("ckpt: sector size %d leaves no chunk payload", sectorSize)
	}
	n := (len(stream) + payload - 1) / payload
	if n == 0 {
		n = 1
	}
	chunks := make([][]byte, n)
	for i := range chunks {
		c := make([]byte, sectorSize)
		binary.LittleEndian.PutUint64(c, ckptID)
		lo := i * payload
		hi := min(lo+payload, len(stream))
		if lo < len(stream) {
			copy(c[ChunkPrefix:], stream[lo:hi])
		}
		chunks[i] = c
	}
	return chunks, nil
}

// Join strips the per-chunk prefixes, verifying every chunk carries the
// expected checkpoint ID, and returns the concatenated stream (with the
// final chunk's padding still attached). The output is allocated once, at
// its final size.
func Join(ckptID uint64, chunks [][]byte) ([]byte, error) {
	n := 0
	for i, c := range chunks {
		if len(c) <= ChunkPrefix {
			return nil, fmt.Errorf("%w: chunk %d too short", ErrBadChunk, i)
		}
		if id := binary.LittleEndian.Uint64(c); id != ckptID {
			return nil, fmt.Errorf("%w: chunk %d has id %d, want %d", ErrBadChunk, i, id, ckptID)
		}
		n += len(c) - ChunkPrefix
	}
	if n == 0 {
		return nil, ErrTruncated
	}
	out := make([]byte, 0, n)
	for _, c := range chunks {
		out = append(out, c[ChunkPrefix:]...)
	}
	return out, nil
}

// Writer accumulates little-endian fields for a section body.
type Writer struct{ B []byte }

func (w *Writer) U8(v uint8)   { w.B = append(w.B, v) }
func (w *Writer) U32(v uint32) { w.B = binary.LittleEndian.AppendUint32(w.B, v) }
func (w *Writer) U64(v uint64) { w.B = binary.LittleEndian.AppendUint64(w.B, v) }
func (w *Writer) Bool(v bool)  { w.U8(map[bool]uint8{false: 0, true: 1}[v]) }

// U64s appends every element of vs as U64 would, growing the buffer at most
// once (a validity stream is bitmap pages of 512 words each).
func (w *Writer) U64s(vs []uint64) {
	w.B = slices.Grow(w.B, 8*len(vs))
	for _, v := range vs {
		w.B = binary.LittleEndian.AppendUint64(w.B, v)
	}
}

func (w *Writer) Bytes(p []byte) {
	w.U32(uint32(len(p)))
	w.B = append(w.B, p...)
}

// Reader decodes what Writer produced; the first framing violation
// latches sticky into Err and zero values flow after it.
type Reader struct {
	B   []byte
	off int
	err error
}

func (r *Reader) fail() { r.err = ErrTruncated }

func (r *Reader) U8() uint8 {
	if r.err != nil || r.off+1 > len(r.B) {
		if r.err == nil {
			r.fail()
		}
		return 0
	}
	v := r.B[r.off]
	r.off++
	return v
}

func (r *Reader) U32() uint32 {
	if r.err != nil || r.off+4 > len(r.B) {
		if r.err == nil {
			r.fail()
		}
		return 0
	}
	v := binary.LittleEndian.Uint32(r.B[r.off:])
	r.off += 4
	return v
}

func (r *Reader) U64() uint64 {
	if r.err != nil || r.off+8 > len(r.B) {
		if r.err == nil {
			r.fail()
		}
		return 0
	}
	v := binary.LittleEndian.Uint64(r.B[r.off:])
	r.off += 8
	return v
}

func (r *Reader) Bool() bool { return r.U8() != 0 }

func (r *Reader) Bytes() []byte {
	n := int(r.U32())
	if r.err != nil || n < 0 || r.off+n > len(r.B) {
		if r.err == nil {
			r.fail()
		}
		return nil
	}
	v := r.B[r.off : r.off+n]
	r.off += n
	return v
}

// Err reports the first framing violation seen by this reader.
func (r *Reader) Err() error { return r.err }

// Rest reports how many bytes remain unread.
func (r *Reader) Rest() int { return len(r.B) - r.off }

// Count validates an element count the caller just read against the bytes
// that remain: n records of at least recSize bytes each must fit, or the
// reader fails (ErrTruncated) and Count returns 0. Streams arrive from image
// files, so no decoder may size an allocation or a loop from a count the
// stream has not paid for.
func (r *Reader) Count(n uint64, recSize int) int {
	if r.err != nil {
		return 0
	}
	if n > uint64(r.Rest()/recSize) {
		r.fail()
		return 0
	}
	return int(n)
}

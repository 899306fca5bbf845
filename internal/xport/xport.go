// Package xport is the snapshot transport: a content-addressed format for
// shipping a snapshot image (or the delta between two snapshots) from one
// device to another, every self-contained unit of it one frame of the
// shared codec (internal/codec).
//
// Two artifacts travel between sender and receiver:
//
//   - a Manifest names every sector the image defines, with a content hash
//     per sector, plus (for deltas) the sectors the base image defines that
//     this image does not. A manifest's identity is the hash of its own
//     canonical encoding, so "is this the delta I asked for" and "does this
//     chunk belong to this transfer" are both single-comparison checks.
//
//   - a stream of frames carries the manifest frame followed by one chunk
//     frame per shipped sector and a trailing end frame with the expected
//     chunk count. Each frame is independently checksummed: a bit flip is
//     caught at the damaged frame, a truncation at the missing end frame,
//     and a reordering is harmless because every chunk names its own LBA.
//
// A receiver keeps the manifest it last committed as its generation (the
// .gen sidecar of a replica image), so the next delta can name its base.
//
// The codec is device-agnostic; the device-aware send/receive/verify loops
// live in internal/iosnap (replicate.go) and compose this package with the
// FTL's epoch-diff machinery.
package xport

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"iosnap/internal/codec"
)

// Errors. The first group reports stream-shape damage a re-send can repair
// (Retryable reports true) — the first two are the codec's own; the second
// reports protocol misuse that no retry fixes.
var (
	ErrTruncated    = codec.ErrTruncated
	ErrBadChecksum  = codec.ErrBadChecksum
	ErrBadStream    = errors.New("xport: malformed stream")
	ErrHashMismatch = errors.New("xport: chunk hash mismatch")

	ErrBadManifest   = errors.New("xport: malformed manifest")
	ErrWrongTransfer = errors.New("xport: chunk belongs to a different transfer")
	ErrUnknownLBA    = errors.New("xport: chunk for LBA not in manifest")
	ErrBaseMismatch  = errors.New("xport: delta does not apply to this base")
)

// Retryable reports whether err is stream-shape damage — truncation, a
// checksum or content-hash mismatch, garbled framing — that a bounded
// re-send (retry.Policy.Do with Retryable) may repair. Protocol errors (wrong
// base, unknown LBA, malformed manifest) are not retryable: the same bytes
// would fail the same way.
func Retryable(err error) bool {
	return errors.Is(err, ErrTruncated) ||
		errors.Is(err, ErrBadChecksum) ||
		errors.Is(err, ErrBadStream) ||
		errors.Is(err, ErrHashMismatch)
}

// HashChunk is the content hash of one sector payload: FNV-64a, an
// identity for content, not a frame checksum (the codec's CRC32 is that).
func HashChunk(data []byte) uint64 {
	h := fnv.New64a()
	h.Write(data)
	return h.Sum64()
}

// Entry names one sector an image defines: its LBA and its content hash.
type Entry struct {
	LBA  uint64
	Hash uint64
}

// Manifest describes one snapshot image, full or incremental.
//
// A full manifest (BaseID == 0, Deletes empty) defines the image exactly:
// every sector in Writes has the named content, every other sector reads
// as zeros. A delta manifest (BaseID != 0) defines the image relative to
// the base manifest it names: Writes are the sectors whose content changed
// or appeared since the base, Deletes the sectors the base defined that
// the target no longer does.
type Manifest struct {
	// SnapID is the source-side snapshot identity (informational: it names
	// which snapshot this image captures, for logs and rotation schemes).
	SnapID uint64
	// BaseSnapID is the source-side snapshot the delta was diffed against
	// (0 for a full image).
	BaseSnapID uint64
	// BaseID is the ID() of the manifest this delta builds on; 0 marks a
	// full image. A receiver refuses a delta whose BaseID does not match
	// its current generation (ErrBaseMismatch).
	BaseID uint64
	// SectorSize and Sectors pin the geometry; a receiver refuses a
	// mismatched device before touching it.
	SectorSize int
	Sectors    int64
	// Writes is sorted ascending by LBA with no duplicates.
	Writes []Entry
	// Deletes is sorted ascending with no duplicates, disjoint from Writes.
	Deletes []uint64
}

// IsDelta reports whether the manifest is incremental.
func (m *Manifest) IsDelta() bool { return m.BaseID != 0 }

// Find returns the entry for lba, if the image defines it.
func (m *Manifest) Find(lba uint64) (Entry, bool) {
	i := sort.Search(len(m.Writes), func(i int) bool { return m.Writes[i].LBA >= lba })
	if i < len(m.Writes) && m.Writes[i].LBA == lba {
		return m.Writes[i], true
	}
	return Entry{}, false
}

// appendBody appends the canonical encoding ID() hashes and Encode()
// frames.
func (m *Manifest) appendBody(w *codec.Writer) {
	w.U64(m.SnapID)
	w.U64(m.BaseSnapID)
	w.U64(m.BaseID)
	w.U32(uint32(m.SectorSize))
	w.U64(uint64(m.Sectors))
	w.U32(uint32(len(m.Writes)))
	for _, e := range m.Writes {
		w.U64(e.LBA)
		w.U64(e.Hash)
	}
	w.U32(uint32(len(m.Deletes)))
	for _, lba := range m.Deletes {
		w.U64(lba)
	}
}

// ID is the manifest's content-derived identity: the hash of its canonical
// encoding. Two manifests with identical content have identical IDs; any
// difference — one changed sector hash — yields a different ID.
func (m *Manifest) ID() uint64 {
	var w codec.Writer
	m.appendBody(&w)
	id := HashChunk(w.B)
	if id == 0 {
		id = 1 // 0 is reserved for "no base"
	}
	return id
}

// Encode frames the manifest as one codec.Manifest frame: a stream's first
// frame, or a whole sidecar file.
func (m *Manifest) Encode() []byte {
	var w codec.Writer
	start := w.Begin(codec.Manifest)
	m.appendBody(&w)
	w.End(start)
	return w.B
}

// DecodeManifest opens a manifest frame — a whole .gen sidecar file — and
// decodes its body. A foreign frame type or bytes after the frame are
// ErrBadManifest.
func DecodeManifest(b []byte) (*Manifest, error) {
	typ, body, n, err := codec.Open(b, codec.MaxPayload)
	switch {
	case err != nil:
		return nil, err
	case typ != codec.Manifest:
		return nil, fmt.Errorf("%w: frame type %d", ErrBadManifest, typ)
	case n != len(b):
		return nil, fmt.Errorf("%w: %d bytes after the frame", ErrBadManifest, len(b)-n)
	}
	return decodeManifestBody(body)
}

// decodeManifestBody validates a manifest body: that it is read to its
// last byte, its ordering invariants, that every LBA lies inside the image
// and that no sector is both written and deleted. Every count is proven
// against the bytes that remain (codec.Reader.Count) before it sizes an
// allocation or a loop.
func decodeManifestBody(body []byte) (*Manifest, error) {
	r := codec.Reader{B: body}
	m := &Manifest{
		SnapID:     r.U64(),
		BaseSnapID: r.U64(),
		BaseID:     r.U64(),
		SectorSize: int(r.U32()),
		Sectors:    int64(r.U64()),
	}
	m.Writes = make([]Entry, r.Count(uint64(r.U32()), 16))
	for i := range m.Writes {
		m.Writes[i] = Entry{LBA: r.U64(), Hash: r.U64()}
	}
	m.Deletes = make([]uint64, r.Count(uint64(r.U32()), 8))
	for i := range m.Deletes {
		m.Deletes[i] = r.U64()
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadManifest, r.Err())
	}
	if r.Rest() != 0 {
		return nil, fmt.Errorf("%w: %d bytes after the deletes", ErrBadManifest, r.Rest())
	}
	if m.SectorSize <= 0 || m.Sectors <= 0 {
		return nil, fmt.Errorf("%w: geometry %d×%d", ErrBadManifest, m.Sectors, m.SectorSize)
	}
	for i := 1; i < len(m.Writes); i++ {
		if m.Writes[i].LBA <= m.Writes[i-1].LBA {
			return nil, fmt.Errorf("%w: writes not strictly ascending at %d", ErrBadManifest, i)
		}
	}
	for i := 1; i < len(m.Deletes); i++ {
		if m.Deletes[i] <= m.Deletes[i-1] {
			return nil, fmt.Errorf("%w: deletes not strictly ascending at %d", ErrBadManifest, i)
		}
	}
	if n := len(m.Writes); n > 0 && m.Writes[n-1].LBA >= uint64(m.Sectors) {
		return nil, fmt.Errorf("%w: write at LBA %d of %d sectors", ErrBadManifest, m.Writes[n-1].LBA, m.Sectors)
	}
	if n := len(m.Deletes); n > 0 && m.Deletes[n-1] >= uint64(m.Sectors) {
		return nil, fmt.Errorf("%w: delete at LBA %d of %d sectors", ErrBadManifest, m.Deletes[n-1], m.Sectors)
	}
	for _, lba := range m.Deletes {
		if _, written := m.Find(lba); written {
			return nil, fmt.Errorf("%w: LBA %d both written and deleted", ErrBadManifest, lba)
		}
	}
	return m, nil
}

// Frame types. A stream is a manifest frame, then chunk frames in any
// order, then an end frame carrying the chunk count.
const (
	FrameManifest = codec.Manifest
	FrameChunk    = codec.Chunk
	FrameEnd      = codec.StreamEnd
)

// Frame is one decoded stream frame.
type Frame struct {
	Type byte
	// Manifest is set for FrameManifest.
	Manifest *Manifest
	// TransferID tags chunk and end frames with the manifest's ID().
	TransferID uint64
	// LBA and Data are set for FrameChunk. Data aliases the stream buffer.
	LBA  uint64
	Data []byte
	// Chunks is the sender's shipped-chunk count, set for FrameEnd.
	Chunks uint64
}

// StreamWriter assembles a transfer stream: manifest first, chunks as the
// sender reads them, end frame on Close.
type StreamWriter struct {
	w      codec.Writer
	id     uint64
	chunks uint64
}

// NewStreamWriter starts a stream for m, writing its manifest frame.
func NewStreamWriter(m *Manifest) *StreamWriter {
	return &StreamWriter{w: codec.Writer{B: m.Encode()}, id: m.ID()}
}

// AddChunk appends one sector payload.
func (w *StreamWriter) AddChunk(lba uint64, data []byte) {
	start := w.w.Begin(FrameChunk)
	w.w.U64(w.id)
	w.w.U64(lba)
	w.w.Bytes(data)
	w.w.End(start)
	w.chunks++
}

// Close appends the end frame and returns the finished stream.
func (w *StreamWriter) Close() []byte {
	start := w.w.Begin(FrameEnd)
	w.w.U64(w.id)
	w.w.U64(w.chunks)
	w.w.End(start)
	return w.w.B
}

// Scanner iterates the frames of a stream, validating each frame's
// checksum. Damage is attributed to the frame it occurs in: a flipped bit
// is ErrBadChecksum at that frame, missing bytes are ErrTruncated.
type Scanner struct {
	b   []byte
	off int
}

// NewScanner scans stream from its first frame.
func NewScanner(stream []byte) *Scanner { return &Scanner{b: stream} }

// More reports whether bytes remain. A well-formed stream ends exactly
// after its end frame; More returning true after FrameEnd means trailing
// garbage (the receiver treats it as ErrBadStream).
func (s *Scanner) More() bool { return s.off < len(s.b) }

// Next decodes the frame at the cursor. Fewer bytes than the smallest
// frame are ErrTruncated; a type byte no stream frame carries is
// ErrBadStream before anything else is read.
func (s *Scanner) Next() (Frame, error) {
	rest := s.b[s.off:]
	if len(rest) >= codec.Overhead && rest[0] != FrameManifest && rest[0] != FrameChunk && rest[0] != FrameEnd {
		return Frame{}, fmt.Errorf("%w: frame at offset %d has type %d", ErrBadStream, s.off, rest[0])
	}
	typ, payload, size, err := codec.Open(rest, codec.MaxPayload)
	if err != nil {
		return Frame{}, fmt.Errorf("frame at offset %d: %w", s.off, err)
	}
	s.off += size

	f := Frame{Type: typ}
	switch typ {
	case FrameManifest:
		m, err := decodeManifestBody(payload)
		if err != nil {
			return Frame{}, err
		}
		f.Manifest = m
		f.TransferID = m.ID()
	case FrameChunk:
		r := codec.Reader{B: payload}
		f.TransferID = r.U64()
		f.LBA = r.U64()
		f.Data = r.Bytes()
		if r.Err() != nil || r.Rest() != 0 {
			return Frame{}, fmt.Errorf("%w: malformed chunk frame", ErrBadStream)
		}
	case FrameEnd:
		r := codec.Reader{B: payload}
		f.TransferID = r.U64()
		f.Chunks = r.U64()
		if r.Err() != nil || r.Rest() != 0 {
			return Frame{}, fmt.Errorf("%w: malformed end frame", ErrBadStream)
		}
	}
	return f, nil
}

// VerifyChunk checks a received chunk against the transfer's manifest:
// the chunk must be tagged with the manifest's ID, name an LBA the image
// defines, and hash to the manifest's recorded content hash.
func VerifyChunk(m *Manifest, id uint64, f Frame) error {
	if f.TransferID != id {
		return fmt.Errorf("%w: chunk tagged %#x, transfer %#x", ErrWrongTransfer, f.TransferID, id)
	}
	e, ok := m.Find(f.LBA)
	if !ok {
		return fmt.Errorf("%w: LBA %d", ErrUnknownLBA, f.LBA)
	}
	if len(f.Data) != m.SectorSize {
		return fmt.Errorf("%w: chunk LBA %d is %d bytes, sector %d", ErrBadStream, f.LBA, len(f.Data), m.SectorSize)
	}
	if HashChunk(f.Data) != e.Hash {
		return fmt.Errorf("%w: LBA %d", ErrHashMismatch, f.LBA)
	}
	return nil
}

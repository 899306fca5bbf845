// Package xport is the snapshot transport codec: a content-addressed,
// TLV-sectioned wire format for shipping a snapshot image (or the delta
// between two snapshots) from one device to another, built on the same
// framing discipline as the checkpoint codec (magic + version + explicit
// length + FNV-64a checksum on every self-contained unit).
//
// Three artifacts travel between sender and receiver:
//
//   - a Manifest names every sector the image defines, with a content hash
//     per sector, plus (for deltas) the sectors the base image defines that
//     this image does not. A manifest's identity is the hash of its own
//     canonical encoding, so "is this the delta I asked for" and "does this
//     chunk belong to this transfer" are both single-comparison checks.
//
//   - a stream of frames carries the manifest followed by one chunk frame
//     per shipped sector and a trailing end frame with the expected chunk
//     count. Each frame is independently checksummed: a bit flip is caught
//     at the damaged frame, a truncation at the missing end frame, and a
//     reordering is harmless because every chunk names its own LBA.
//
//   - a Journal records which chunks a receiver has verified and applied,
//     so an interrupted receive resumes from the last durable chunk instead
//     of restarting, and a half-applied import is detectable (journal
//     present, Committed false) rather than silently visible.
//
// The codec is device-agnostic; the device-aware send/receive/verify loops
// live in internal/iosnap (replicate.go) and compose this package with the
// FTL's epoch-diff machinery.
package xport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"

	"iosnap/internal/ckpt"
)

// Errors. The first group reports stream-shape damage a re-send can repair
// (Retryable reports true); the second reports protocol misuse that no
// retry fixes.
var (
	ErrTruncated    = errors.New("xport: truncated stream")
	ErrBadChecksum  = errors.New("xport: frame checksum mismatch")
	ErrBadStream    = errors.New("xport: malformed stream")
	ErrHashMismatch = errors.New("xport: chunk hash mismatch")

	ErrBadManifest   = errors.New("xport: malformed manifest")
	ErrBadJournal    = errors.New("xport: malformed journal")
	ErrWrongTransfer = errors.New("xport: chunk belongs to a different transfer")
	ErrUnknownLBA    = errors.New("xport: chunk for LBA not in manifest")
	ErrBaseMismatch  = errors.New("xport: delta does not apply to this base")
)

// Retryable reports whether err is stream-shape damage — truncation, a
// checksum or content-hash mismatch, garbled framing — that a bounded
// re-send (retry.Policy.DoRetryable) may repair. Protocol errors (wrong
// base, unknown LBA, malformed manifest) are not retryable: the same bytes
// would fail the same way.
func Retryable(err error) bool {
	return errors.Is(err, ErrTruncated) ||
		errors.Is(err, ErrBadChecksum) ||
		errors.Is(err, ErrBadStream) ||
		errors.Is(err, ErrHashMismatch)
}

// HashChunk is the content hash of one sector payload (FNV-64a, matching
// the rest of the repository's integrity checks).
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

// encodeBody is the canonical encoding ID() hashes and Encode() frames.
func (m *Manifest) encodeBody() []byte {
	var w ckpt.Writer
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
	return w.B
}

// ID is the manifest's content-derived identity: the hash of its canonical
// encoding. Two manifests with identical content have identical IDs; any
// difference — one changed sector hash — yields a different ID.
func (m *Manifest) ID() uint64 {
	id := HashChunk(m.encodeBody())
	if id == 0 {
		id = 1 // 0 is reserved for "no base"
	}
	return id
}

var manifestMagic = [4]byte{'i', 'X', 'm', 'f'}

const xportVersion = 1

// Encode frames the manifest as a standalone self-checking blob (magic,
// version, length, body, FNV-64a), suitable for a stream frame or a file.
func (m *Manifest) Encode() []byte {
	return seal(nil, manifestMagic, xportVersion, m.encodeBody())
}

// DecodeManifest validates framing, checksum, ordering invariants, and
// that every LBA lies inside the image and no sector is both written and
// deleted. Every count is proven against the bytes that remain
// (ckpt.Reader.Count) before it sizes an allocation or a loop.
func DecodeManifest(b []byte) (*Manifest, error) {
	body, err := openVersioned(b, manifestMagic, ErrBadManifest)
	if err != nil {
		return nil, err
	}
	r := ckpt.Reader{B: body}
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

// The envelope every self-contained unit travels in — manifest, journal,
// stream frame: [4-byte magic][tag][u32 n][n-byte body][FNV-64a of
// everything before]. The tag is the format version of a manifest or a
// journal and the type of a frame.
const envHead, envTail = 4 + 1 + 4, 8

// seal appends body to dst in an envelope.
func seal(dst []byte, magic [4]byte, tag byte, body []byte) []byte {
	start := len(dst)
	dst = append(dst, magic[:]...)
	dst = append(dst, tag)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = append(dst, body...)
	h := fnv.New64a()
	h.Write(dst[start:])
	return binary.LittleEndian.AppendUint64(dst, h.Sum64())
}

// open validates the envelope at the front of b and returns its tag, its
// body, and its size. Missing bytes are ErrTruncated, a checksum mismatch
// ErrBadChecksum, and a foreign magic badErr.
func open(b []byte, magic [4]byte, badErr error) (tag byte, body []byte, size int, err error) {
	if len(b) < envHead+envTail {
		return 0, nil, 0, fmt.Errorf("%w: %d bytes", ErrTruncated, len(b))
	}
	if [4]byte(b[:4]) != magic {
		return 0, nil, 0, fmt.Errorf("%w: bad magic", badErr)
	}
	n := binary.LittleEndian.Uint32(b[5:])
	if uint64(n) > uint64(len(b)-envHead-envTail) {
		return 0, nil, 0, fmt.Errorf("%w: body %d of %d bytes", ErrTruncated, n, len(b))
	}
	end := envHead + int(n)
	h := fnv.New64a()
	h.Write(b[:end])
	if h.Sum64() != binary.LittleEndian.Uint64(b[end:]) {
		return 0, nil, 0, ErrBadChecksum
	}
	return b[4], b[envHead:end], end + envTail, nil
}

// openVersioned opens a standalone manifest or journal: one envelope of the
// current format version.
func openVersioned(b []byte, magic [4]byte, badErr error) ([]byte, error) {
	ver, body, _, err := open(b, magic, badErr)
	if err != nil {
		return nil, err
	}
	if ver != xportVersion {
		return nil, fmt.Errorf("%w: version %d", badErr, ver)
	}
	return body, nil
}

// Frame types. A stream is a manifest frame, then chunk frames in any
// order, then an end frame carrying the chunk count.
const (
	FrameManifest byte = 1
	FrameChunk    byte = 2
	FrameEnd      byte = 3
)

var frameMagic = [4]byte{'i', 'X', 'f', 'r'}

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
	b      []byte
	id     uint64
	chunks uint64
}

// NewStreamWriter starts a stream for m, writing its manifest frame.
func NewStreamWriter(m *Manifest) *StreamWriter {
	w := &StreamWriter{id: m.ID()}
	w.b = seal(w.b, frameMagic, FrameManifest, m.Encode())
	return w
}

// AddChunk appends one sector payload.
func (w *StreamWriter) AddChunk(lba uint64, data []byte) {
	var p ckpt.Writer
	p.U64(w.id)
	p.U64(lba)
	p.Bytes(data)
	w.b = seal(w.b, frameMagic, FrameChunk, p.B)
	w.chunks++
}

// Close appends the end frame and returns the finished stream.
func (w *StreamWriter) Close() []byte {
	var p ckpt.Writer
	p.U64(w.id)
	p.U64(w.chunks)
	return seal(w.b, frameMagic, FrameEnd, p.B)
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

// Next decodes the frame at the cursor.
func (s *Scanner) Next() (Frame, error) {
	typ, payload, size, err := open(s.b[s.off:], frameMagic, ErrBadStream)
	if err != nil {
		return Frame{}, fmt.Errorf("frame at offset %d: %w", s.off, err)
	}
	s.off += size

	f := Frame{Type: typ}
	switch typ {
	case FrameManifest:
		m, err := DecodeManifest(payload)
		if err != nil {
			return Frame{}, err
		}
		f.Manifest = m
		f.TransferID = m.ID()
	case FrameChunk:
		r := ckpt.Reader{B: payload}
		f.TransferID = r.U64()
		f.LBA = r.U64()
		f.Data = r.Bytes()
		if r.Err() != nil || r.Rest() != 0 {
			return Frame{}, fmt.Errorf("%w: malformed chunk frame", ErrBadStream)
		}
	case FrameEnd:
		r := ckpt.Reader{B: payload}
		f.TransferID = r.U64()
		f.Chunks = r.U64()
		if r.Err() != nil || r.Rest() != 0 {
			return Frame{}, fmt.Errorf("%w: malformed end frame", ErrBadStream)
		}
	default:
		return Frame{}, fmt.Errorf("%w: unknown frame type %d", ErrBadStream, typ)
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

// Journal is the receiver's durable record of one transfer: which chunks
// verified and landed on the target device, whether the delta's deletes
// were applied, and whether the import committed. A receiver persists the
// journal after every applied batch; on restart, DecodeJournal + the same
// manifest resume the transfer from the last durable chunk.
type Journal struct {
	// ManifestID pins the journal to one transfer; resuming with a journal
	// from a different transfer is ErrWrongTransfer.
	ManifestID uint64
	// Committed is set by the receiver's final step, after every chunk and
	// delete has landed. A journal with Committed false marks a half-applied
	// import: invisible to consumers until resumed to completion.
	Committed bool
	// DeletesDone records that the delta's Deletes were applied (they are
	// idempotent, but tracking them keeps resume cheap).
	DeletesDone bool

	applied map[uint64]struct{}
}

// NewJournal starts an empty journal for the given transfer.
func NewJournal(manifestID uint64) *Journal {
	return &Journal{ManifestID: manifestID, applied: make(map[uint64]struct{})}
}

// MarkApplied records that lba's chunk verified and landed.
func (j *Journal) MarkApplied(lba uint64) { j.applied[lba] = struct{}{} }

// Applied reports whether lba's chunk already landed.
func (j *Journal) Applied(lba uint64) bool {
	_, ok := j.applied[lba]
	return ok
}

// AppliedCount is the number of landed chunks.
func (j *Journal) AppliedCount() int { return len(j.applied) }

// Unmark forgets that lba's chunk landed, forcing the next resumed apply
// to re-write it — the verify-repair path for sectors that failed a
// post-receive hash check.
func (j *Journal) Unmark(lba uint64) { delete(j.applied, lba) }

var journalMagic = [4]byte{'i', 'X', 'j', 'l'}

// Encode frames the journal as a standalone self-checking blob.
func (j *Journal) Encode() []byte {
	lbas := make([]uint64, 0, len(j.applied))
	for lba := range j.applied {
		lbas = append(lbas, lba)
	}
	sort.Slice(lbas, func(a, b int) bool { return lbas[a] < lbas[b] })
	var w ckpt.Writer
	w.U64(j.ManifestID)
	w.Bool(j.Committed)
	w.Bool(j.DeletesDone)
	w.U32(uint32(len(lbas)))
	for _, lba := range lbas {
		w.U64(lba)
	}
	return seal(nil, journalMagic, xportVersion, w.B)
}

// DecodeJournal validates framing and checksum and rebuilds the journal.
// A damaged journal is ErrBadJournal-class: the receiver restarts the
// transfer from scratch rather than trusting it.
func DecodeJournal(b []byte) (*Journal, error) {
	body, err := openVersioned(b, journalMagic, ErrBadJournal)
	if err != nil {
		if errors.Is(err, ErrTruncated) || errors.Is(err, ErrBadChecksum) {
			return nil, fmt.Errorf("%w: %v", ErrBadJournal, err)
		}
		return nil, err
	}
	r := ckpt.Reader{B: body}
	j := &Journal{
		ManifestID:  r.U64(),
		Committed:   r.Bool(),
		DeletesDone: r.Bool(),
		applied:     make(map[uint64]struct{}),
	}
	n := r.Count(uint64(r.U32()), 8)
	for i := 0; i < n; i++ {
		j.applied[r.U64()] = struct{}{}
	}
	if r.Err() != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadJournal, r.Err())
	}
	return j, nil
}

package nand

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"

	"iosnap/internal/sim"
)

// A device image is a magic string followed by CRC-framed chunks — one
// header frame, one frame per *touched* segment, and an end frame carrying
// totals. SaveImage streams it through any io.Writer without staging a
// frame, and LoadImage reads each segment frame into a buffer that then
// holds the loaded pages' payloads, so extra heap stays O(one segment),
// never O(device) — which is what lets a TB-class geometry persist through
// an ordinary file handle. Untouched segments (never programmed, never
// erased, healthy) are not framed at all, so a sparse huge device images in
// O(touched) bytes. Every frame carries a CRC32 and the end frame carries
// segment/page counts: a truncated, torn, or bit-flipped image fails
// loudly, and no partial device is ever returned.
//
// This is format version 4, the only one read or written; a stream that
// does not open with its magic is refused as corrupt.
const imageVersion = 4

// imageMagic begins every image.
const imageMagic = "ioSnapImg4\n"

// Frame types.
const (
	frameHeader byte = 1 // gob-encoded imageHeader
	frameSeg    byte = 2 // one touched segment, binary-encoded
	frameEnd    byte = 3 // totals: segment frames, programmed pages
)

// maxFramePayload bounds a single frame so a corrupt length field cannot
// drive a multi-gigabyte allocation. Frames after the header are held to
// the tighter maxSegFrame of the image's geometry.
const maxFramePayload = 1 << 30

// Segment frame layout (big endian): segFixedLen bytes of u32 index,
// u32 nextProg, u32 erases, u8 health, u32 programmedPages; then per
// programmed page, ascending, a pageRecLen record of u32 pageIndex,
// OOBSize bytes OOB, u64 fingerprint, u32 dataLen, followed by dataLen
// payload bytes.
const (
	segFixedLen = 4 + 4 + 4 + 1 + 4
	pageRecLen  = 4 + OOBSize + 8 + 4
)

// ErrImageCorrupt reports a structurally damaged image: bad CRC, truncated
// frame, duplicate or out-of-range indices, or totals that do not add up.
var ErrImageCorrupt = errors.New("nand: image corrupt")

type imageHeader struct {
	Version int
	Cfg     Config
	Stats   Stats
	// HasAnchor distinguishes "no checkpoint" from a zero-valued anchor.
	HasAnchor bool
	Anchor    Anchor
}

// touched reports whether a segment carries any state worth imaging. A
// fresh-from-New segment (no page array, no erases, healthy) reloads
// identically from nothing, which is what keeps sparse TB-class images
// O(touched segments).
func (s *segment) touched() bool {
	return s.pages != nil || s.nextProg != 0 || s.erases != 0 || s.health != Healthy
}

// maxSegFrame is the longest segment frame a geometry can produce: every
// page programmed with a full payload.
func maxSegFrame(c Config) int64 {
	return segFixedLen + int64(c.PagesPerSegment)*(pageRecLen+int64(c.SectorSize))
}

// checkImageGeometry rejects a valid configuration that no image can carry:
// a fully programmed segment must fit one frame, and the arrays New and a
// segment's first program allocate — one entry per segment, per channel,
// per page of a segment — are held to the frame bound too, so a crafted
// header can neither panic New nor ask for more memory in one allocation
// than a frame may. Together these keep TotalPages (< 2^25 segments ×
// < 2^25 pages) and Capacity (< 2^25 segments × 2^30 bytes) inside int64.
func checkImageGeometry(c Config) error {
	fits := func(n int, size uintptr) bool { return int64(n) <= maxFramePayload/int64(size) }
	switch {
	case !fits(c.Segments, unsafe.Sizeof(segment{})):
		return fmt.Errorf("%d segments", c.Segments)
	case !fits(c.Channels, unsafe.Sizeof(sim.Resource{})):
		return fmt.Errorf("%d channels", c.Channels)
	case !fits(c.PagesPerSegment, unsafe.Sizeof(page{})), !fits(c.SectorSize, 1),
		maxSegFrame(c) > maxFramePayload:
		return fmt.Errorf("a segment of %d %d-byte pages does not fit one frame", c.PagesPerSegment, c.SectorSize)
	}
	return nil
}

// SaveImage serializes the device (configuration, wear, page contents) to
// w. Each payload goes from its page into the writer's 64 KiB buffer once —
// nothing is staged per frame — so the writer may be a plain file handle
// and the device may be TB-class. Together with LoadImage it gives the CLI
// and the storage server persistent device images across process lifetimes.
func (d *Device) SaveImage(w io.Writer) error {
	if err := checkImageGeometry(d.cfg); err != nil {
		return fmt.Errorf("nand: device cannot be imaged: %v", err)
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	if _, err := bw.WriteString(imageMagic); err != nil {
		return fmt.Errorf("nand: writing image magic: %w", err)
	}

	var hdrBuf bytes.Buffer
	hdr := imageHeader{Version: imageVersion, Cfg: d.cfg, Stats: d.stats}
	if d.anchor != nil {
		hdr.HasAnchor = true
		hdr.Anchor = *d.anchor.clone()
	}
	if err := gob.NewEncoder(&hdrBuf).Encode(hdr); err != nil {
		return fmt.Errorf("nand: encoding image header: %w", err)
	}
	if err := writeFrame(bw, frameHeader, hdrBuf.Bytes()); err != nil {
		return err
	}

	var segFrames, pagesTotal uint64
	for i := range d.segs {
		s := &d.segs[i]
		if !s.touched() {
			continue
		}
		n, err := writeSegmentFrame(bw, i, s)
		if err != nil {
			return fmt.Errorf("nand: writing segment %d: %w", i, err)
		}
		segFrames++
		pagesTotal += uint64(n)
	}

	var end [16]byte
	binary.BigEndian.PutUint64(end[0:8], segFrames)
	binary.BigEndian.PutUint64(end[8:16], pagesTotal)
	if err := writeFrame(bw, frameEnd, end[:]); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("nand: flushing image: %w", err)
	}
	return nil
}

// frameWriter emits one CRC-framed chunk — type byte, payload length,
// payload, CRC32 over the type byte and payload — piece by piece, keeping
// the CRC running. bufio.Writer errors are sticky, so only end checks one.
type frameWriter struct {
	w   *bufio.Writer
	crc uint32
}

func (f *frameWriter) begin(typ byte, n int) {
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:5], uint32(n))
	f.crc = crc32.ChecksumIEEE(hdr[:1])
	f.w.Write(hdr[:])
}

func (f *frameWriter) write(b []byte) {
	f.crc = crc32.Update(f.crc, crc32.IEEETable, b)
	f.w.Write(b)
}

func (f *frameWriter) end() error {
	var tail [4]byte
	binary.BigEndian.PutUint32(tail[:], f.crc)
	if _, err := f.w.Write(tail[:]); err != nil {
		return fmt.Errorf("nand: writing frame: %w", err)
	}
	return nil
}

// writeFrame emits a frame whose payload is already in memory.
func writeFrame(w *bufio.Writer, typ byte, payload []byte) error {
	f := frameWriter{w: w}
	f.begin(typ, len(payload))
	f.write(payload)
	return f.end()
}

// writeSegmentFrame streams segment i as one frame and returns how many
// programmed pages it carried. The frame's length is summed from the page
// list first, so records and payloads go straight to w.
func writeSegmentFrame(w *bufio.Writer, i int, s *segment) (programmed int, err error) {
	n := segFixedLen
	for j := range s.pages {
		if p := &s.pages[j]; p.state == pageProgrammed {
			programmed++
			n += pageRecLen + len(p.data)
		}
	}
	f := frameWriter{w: w}
	f.begin(frameSeg, n)
	var rec [pageRecLen]byte
	binary.BigEndian.PutUint32(rec[0:4], uint32(i))
	binary.BigEndian.PutUint32(rec[4:8], uint32(s.nextProg))
	binary.BigEndian.PutUint32(rec[8:12], uint32(s.erases))
	rec[12] = byte(s.health)
	binary.BigEndian.PutUint32(rec[13:17], uint32(programmed))
	f.write(rec[:segFixedLen])
	for j := range s.pages {
		p := &s.pages[j]
		if p.state != pageProgrammed {
			continue
		}
		binary.BigEndian.PutUint32(rec[0:4], uint32(j))
		copy(rec[4:4+OOBSize], p.oob[:])
		binary.BigEndian.PutUint64(rec[4+OOBSize:], p.fp)
		binary.BigEndian.PutUint32(rec[4+OOBSize+8:], uint32(len(p.data)))
		f.write(rec[:])
		f.write(p.data)
	}
	return programmed, f.end()
}

// frame is one chunk as read, its checksum not yet verified.
type frame struct {
	typ  byte
	body []byte
	crc  uint32 // as stored
}

// readFrame reads the next frame, whose payload may be at most limit bytes.
// A segment frame gets a buffer of its own (loaded pages keep their
// payloads in it); any other frame reuses *scratch. A short read anywhere
// inside a frame is reported as corruption (truncated image); io.EOF comes
// back only at a clean frame boundary.
func readFrame(r io.Reader, limit int64, scratch *[]byte) (frame, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return frame{}, io.EOF // clean boundary; caller decides if it was expected
		}
		return frame{}, fmt.Errorf("%w: truncated frame header: %v", ErrImageCorrupt, err)
	}
	n := int64(binary.BigEndian.Uint32(hdr[1:5]))
	if n > limit {
		return frame{}, fmt.Errorf("%w: frame claims %d payload bytes, at most %d fit", ErrImageCorrupt, n, limit)
	}
	var buf []byte
	if hdr[0] == frameSeg {
		buf = make([]byte, n+4)
	} else {
		if int64(cap(*scratch)) < n+4 {
			*scratch = make([]byte, n+4)
		}
		buf = (*scratch)[:n+4]
	}
	if _, err := io.ReadFull(r, buf); err != nil {
		return frame{}, fmt.Errorf("%w: truncated frame: %v", ErrImageCorrupt, err)
	}
	return frame{typ: hdr[0], body: buf[:n:n], crc: binary.BigEndian.Uint32(buf[n:])}, nil
}

// verify checks the frame's CRC32 over its type byte and payload.
func (f *frame) verify() error {
	crc := crc32.Update(crc32.ChecksumIEEE([]byte{f.typ}), crc32.IEEETable, f.body)
	if crc != f.crc {
		return fmt.Errorf("%w: frame checksum %#x, want %#x", ErrImageCorrupt, f.crc, crc)
	}
	return nil
}

// LoadImage reconstructs a device previously serialized with SaveImage. On
// any error — a missing magic, truncation, bit damage, duplicate or
// out-of-range indices, a geometry no image can carry — no device is
// returned: a partially-reconstructed device must never reach recovery.
func LoadImage(r io.Reader) (*Device, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	peek, err := br.Peek(len(imageMagic))
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("nand: reading image: %w", err)
	}
	if string(peek) != imageMagic {
		return nil, fmt.Errorf("%w: stream does not open with the image magic", ErrImageCorrupt)
	}
	br.Discard(len(imageMagic))

	var scratch []byte
	d, err := loadHeader(br, &scratch)
	if err != nil {
		return nil, err
	}
	if err := loadSegments(br, d, &scratch); err != nil {
		return nil, err
	}
	return d, nil
}

// loadHeader reads the header frame and builds the empty device it
// describes.
func loadHeader(r io.Reader, scratch *[]byte) (*Device, error) {
	f, err := readFrame(r, maxFramePayload, scratch)
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("%w: image ends before the header frame", ErrImageCorrupt)
		}
		return nil, err
	}
	if err := f.verify(); err != nil {
		return nil, err
	}
	if f.typ != frameHeader {
		return nil, fmt.Errorf("%w: first frame type %d, want header", ErrImageCorrupt, f.typ)
	}
	var hdr imageHeader
	if err := gob.NewDecoder(bytes.NewReader(f.body)).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("nand: decoding image header: %w", err)
	}
	if hdr.Version != imageVersion {
		return nil, fmt.Errorf("nand: image version %d, want %d", hdr.Version, imageVersion)
	}
	if err := hdr.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("%w: invalid config: %v", ErrImageCorrupt, err)
	}
	if err := checkImageGeometry(hdr.Cfg); err != nil {
		return nil, fmt.Errorf("%w: geometry: %v", ErrImageCorrupt, err)
	}
	d := New(hdr.Cfg)
	d.stats = hdr.Stats
	if hdr.HasAnchor {
		d.anchor = hdr.Anchor.clone()
	}
	return d, nil
}

// loadSegments applies the segment frames after the header and checks the
// end frame. Reading overlaps verification: this goroutine reads frame k+1
// while a second one checks frame k's CRC and applies it to d, and it waits
// for that goroutine on every path before it returns.
func loadSegments(r *bufio.Reader, d *Device, scratch *[]byte) error {
	// Two queued frames let the reader run ahead by no more than that while
	// the verifier works, bounding the extra heap to a few segments.
	segs := make(chan frame, 2)
	done := make(chan struct{})
	var segFrames, pagesTotal uint64
	var applyErr error
	go func() {
		defer close(done)
		segFrames, pagesTotal, applyErr = applySegments(d, segs)
	}()
	last, readErr := readSegments(r, maxSegFrame(d.cfg), scratch, segs, done)
	close(segs)
	<-done
	if applyErr != nil {
		return applyErr // an earlier frame than any read error concerns
	}
	if readErr != nil {
		return readErr
	}

	if err := last.verify(); err != nil {
		return err
	}
	if last.typ != frameEnd {
		return fmt.Errorf("%w: unexpected frame type %d", ErrImageCorrupt, last.typ)
	}
	if len(last.body) != 16 {
		return fmt.Errorf("%w: end frame is %d bytes, want 16", ErrImageCorrupt, len(last.body))
	}
	if got := binary.BigEndian.Uint64(last.body[0:8]); got != segFrames {
		return fmt.Errorf("%w: end frame promises %d segments, image carries %d", ErrImageCorrupt, got, segFrames)
	}
	if got := binary.BigEndian.Uint64(last.body[8:16]); got != pagesTotal {
		return fmt.Errorf("%w: end frame promises %d pages, image carries %d", ErrImageCorrupt, got, pagesTotal)
	}
	// Nothing may follow the end frame.
	if _, err := r.ReadByte(); err != io.EOF {
		return fmt.Errorf("%w: data after the end frame", ErrImageCorrupt)
	}
	return nil
}

// readSegments hands each segment frame it reads to segs, until it reads a
// frame of another type, which it returns unsent. It gives up early, with
// no error of its own, once done is closed: the verifier has failed and
// reports why.
func readSegments(r io.Reader, limit int64, scratch *[]byte, segs chan<- frame, done <-chan struct{}) (frame, error) {
	for {
		f, err := readFrame(r, limit, scratch)
		if err == io.EOF {
			return frame{}, fmt.Errorf("%w: image ends without an end frame", ErrImageCorrupt)
		}
		if err != nil || f.typ != frameSeg {
			return f, err
		}
		select {
		case segs <- f:
		case <-done:
			return frame{}, nil
		}
	}
}

// applySegments verifies and applies segment frames until segs closes or a
// frame fails, returning how many frames and programmed pages it applied.
func applySegments(d *Device, segs <-chan frame) (frames, pages uint64, err error) {
	seen := make(map[int]bool)
	for f := range segs {
		if err := f.verify(); err != nil {
			return 0, 0, err
		}
		n, err := decodeSegmentFrame(d, f.body, seen)
		if err != nil {
			return 0, 0, err
		}
		frames++
		pages += uint64(n)
	}
	return frames, pages, nil
}

// decodeSegmentFrame applies one segment frame to d, rejecting duplicate
// segment indices (seen) and malformed page lists. Each loaded payload stays
// where the frame holds it: the page's data is a sub-slice of body, capped
// at the sector size, so programming or copying into the page later
// rewrites those bytes and no neighbour's.
func decodeSegmentFrame(d *Device, body []byte, seen map[int]bool) (pages int, err error) {
	cfg := d.cfg
	if len(body) < segFixedLen {
		return 0, fmt.Errorf("%w: short segment frame", ErrImageCorrupt)
	}
	idx := int(binary.BigEndian.Uint32(body[0:4]))
	nextProg := int(binary.BigEndian.Uint32(body[4:8]))
	erases := int(binary.BigEndian.Uint32(body[8:12]))
	health := Health(body[12])
	nPages := int(binary.BigEndian.Uint32(body[13:17]))

	if idx < 0 || idx >= cfg.Segments {
		return 0, fmt.Errorf("%w: segment index %d out of range", ErrImageCorrupt, idx)
	}
	if seen[idx] {
		return 0, fmt.Errorf("%w: duplicate segment %d", ErrImageCorrupt, idx)
	}
	seen[idx] = true
	if nextProg < 0 || nextProg > cfg.PagesPerSegment {
		return 0, fmt.Errorf("%w: segment %d nextProg %d out of range", ErrImageCorrupt, idx, nextProg)
	}
	if nPages < 0 || nPages > cfg.PagesPerSegment || nPages > (len(body)-segFixedLen)/pageRecLen {
		return 0, fmt.Errorf("%w: segment %d claims %d pages", ErrImageCorrupt, idx, nPages)
	}
	if health > Retired {
		return 0, fmt.Errorf("%w: segment %d health %d unknown", ErrImageCorrupt, idx, health)
	}

	s := &d.segs[idx]
	s.nextProg = nextProg
	s.erases = erases
	s.health = health
	if nPages > 0 && s.pages == nil {
		s.pages = make([]page, cfg.PagesPerSegment)
	}
	prev, off := -1, segFixedLen
	for k := 0; k < nPages; k++ {
		if len(body)-off < pageRecLen {
			return 0, fmt.Errorf("%w: segment %d truncated at page %d", ErrImageCorrupt, idx, k)
		}
		rec := body[off : off+pageRecLen]
		off += pageRecLen
		pi := int(binary.BigEndian.Uint32(rec[0:4]))
		if pi <= prev || pi >= cfg.PagesPerSegment {
			// Covers out-of-range, duplicates, and reordering in one check:
			// the writer emits strictly ascending page indices.
			return 0, fmt.Errorf("%w: segment %d page index %d after %d", ErrImageCorrupt, idx, pi, prev)
		}
		prev = pi
		p := &s.pages[pi]
		p.state = pageProgrammed
		copy(p.oob[:], rec[4:4+OOBSize])
		p.fp = binary.BigEndian.Uint64(rec[4+OOBSize:])
		switch dlen := int(binary.BigEndian.Uint32(rec[4+OOBSize+8:])); dlen {
		case 0:
			p.data = nil
		case cfg.SectorSize:
			if len(body)-off < dlen {
				return 0, fmt.Errorf("%w: segment %d page %d payload truncated", ErrImageCorrupt, idx, pi)
			}
			p.data = body[off : off+dlen : off+dlen]
			off += dlen
		default:
			return 0, fmt.Errorf("%w: segment %d page %d payload %d bytes, want 0 or %d",
				ErrImageCorrupt, idx, pi, dlen, cfg.SectorSize)
		}
	}
	if off != len(body) {
		return 0, fmt.Errorf("%w: segment %d frame has %d trailing bytes", ErrImageCorrupt, idx, len(body)-off)
	}
	return nPages, nil
}

// StateDigest hashes the complete externally-observable device state:
// configuration, statistics, anchor, and every segment's wear, health, and
// programmed pages (OOB, fingerprint, payload). Two devices with equal
// digests are interchangeable to the FTL; the image round-trip tests and
// the server's save/remount path use it as the bit-identity oracle.
func (d *Device) StateDigest() uint64 {
	h := mix64(0x696f536e61704469, uint64(imageVersionDigestSalt))
	h = mix64(h, uint64(d.cfg.SectorSize))
	h = mix64(h, uint64(d.cfg.PagesPerSegment))
	h = mix64(h, uint64(d.cfg.Segments))
	h = mix64(h, uint64(d.cfg.Channels))
	h = mix64(h, uint64(d.cfg.EraseEndurance))
	h = mix64(h, boolBit(d.cfg.StoreData)<<1|boolBit(d.cfg.SequentialProg))
	h = mix64(h, uint64(d.stats.PagePrograms))
	h = mix64(h, uint64(d.stats.PageReads))
	h = mix64(h, uint64(d.stats.Erases))
	h = mix64(h, uint64(d.stats.BytesWritten))
	if d.anchor != nil {
		h = mix64(h, d.anchor.ID)
		for _, a := range d.anchor.Addrs {
			h = mix64(h, uint64(a))
		}
	}
	for i := range d.segs {
		s := &d.segs[i]
		if !s.touched() {
			continue
		}
		h = mix64(h, uint64(i))
		h = mix64(h, uint64(s.nextProg))
		h = mix64(h, uint64(s.erases))
		h = mix64(h, uint64(s.health))
		for j := range s.pages {
			p := &s.pages[j]
			if p.state != pageProgrammed {
				continue
			}
			h = mix64(h, uint64(j))
			h = hashWords(h, p.oob[:])
			h = mix64(h, p.fp)
			h = hashWords(h, p.data)
		}
	}
	return h
}

// imageVersionDigestSalt keeps StateDigest stable across format versions:
// the digest hashes device state, not encoding, so it is NOT bumped with
// imageVersion.
const imageVersionDigestSalt = 1

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

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
)

// A device image is a magic string followed by CRC-framed chunks — one
// header frame, one frame per *touched* segment, and an end frame carrying
// totals. SaveImage emits it segment-at-a-time through any io.Writer and
// LoadImage consumes it frame-at-a-time, so peak extra heap is O(one
// segment), never O(device) — which is what lets a TB-class geometry
// persist through an ordinary file handle. Untouched segments (never
// programmed, never erased, healthy) are not framed at all, so a sparse
// huge device images in O(touched) bytes. Every frame carries a CRC32 and
// the end frame carries segment/page counts: a truncated, torn, or
// bit-flipped image fails loudly, and no partial device is ever returned.
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
// drive a multi-gigabyte allocation. One frame holds at most one segment:
// pages-per-segment × (page overhead + sector) plus slack. 1 GiB covers
// every geometry this repo configures with orders of magnitude to spare.
const maxFramePayload = 1 << 30

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

// SaveImage serializes the device (configuration, wear, page contents) to
// w. It buffers at most one segment frame at a time,
// so the writer may be a plain file handle and the device may be TB-class.
// Together with LoadImage it gives the CLI and the storage server
// persistent device images across process lifetimes.
func (d *Device) SaveImage(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	if _, err := bw.WriteString(imageMagic); err != nil {
		return fmt.Errorf("nand: writing image magic: %w", err)
	}

	var payload bytes.Buffer // reused across frames: peak heap is O(largest frame)
	hdr := imageHeader{Version: imageVersion, Cfg: d.cfg, Stats: d.stats}
	if d.anchor != nil {
		hdr.HasAnchor = true
		hdr.Anchor = *d.anchor.clone()
	}
	if err := gob.NewEncoder(&payload).Encode(hdr); err != nil {
		return fmt.Errorf("nand: encoding image header: %w", err)
	}
	if err := writeFrame(bw, frameHeader, payload.Bytes()); err != nil {
		return err
	}

	var segFrames, pagesTotal uint64
	for i := range d.segs {
		s := &d.segs[i]
		if !s.touched() {
			continue
		}
		payload.Reset()
		n := encodeSegmentFrame(&payload, i, s)
		if err := writeFrame(bw, frameSeg, payload.Bytes()); err != nil {
			return fmt.Errorf("nand: writing segment %d: %w", i, err)
		}
		segFrames++
		pagesTotal += uint64(n)
	}

	payload.Reset()
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

// encodeSegmentFrame appends segment i's binary encoding to buf and returns
// how many programmed pages it encoded. Layout (big endian):
//
//	u32 index, u32 nextProg, u32 erases, u8 health, u32 programmedPages,
//	then per programmed page: u32 pageIndex (ascending), OOBSize bytes OOB,
//	u64 fingerprint, u32 dataLen, dataLen payload bytes.
func encodeSegmentFrame(buf *bytes.Buffer, i int, s *segment) int {
	var scratch [8]byte
	put32 := func(v uint32) {
		binary.BigEndian.PutUint32(scratch[:4], v)
		buf.Write(scratch[:4])
	}
	put64 := func(v uint64) {
		binary.BigEndian.PutUint64(scratch[:8], v)
		buf.Write(scratch[:8])
	}
	programmed := 0
	for j := range s.pages {
		if s.pages[j].state == pageProgrammed {
			programmed++
		}
	}
	put32(uint32(i))
	put32(uint32(s.nextProg))
	put32(uint32(s.erases))
	buf.WriteByte(byte(s.health))
	put32(uint32(programmed))
	for j := range s.pages {
		p := &s.pages[j]
		if p.state != pageProgrammed {
			continue
		}
		put32(uint32(j))
		buf.Write(p.oob[:])
		put64(p.fp)
		put32(uint32(len(p.data)))
		buf.Write(p.data)
	}
	return programmed
}

// writeFrame emits one CRC-framed chunk: type byte, payload length, payload,
// CRC32 over the type byte and payload.
func writeFrame(w *bufio.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	crc := crc32.ChecksumIEEE(hdr[:1])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("nand: writing frame: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("nand: writing frame: %w", err)
	}
	var tail [4]byte
	binary.BigEndian.PutUint32(tail[:], crc)
	if _, err := w.Write(tail[:]); err != nil {
		return fmt.Errorf("nand: writing frame: %w", err)
	}
	return nil
}

// readFrame reads the next frame, reusing *payload as scratch. A short read
// anywhere inside a frame is reported as corruption (truncated image).
func readFrame(r io.Reader, payload *[]byte) (typ byte, body []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return 0, nil, io.EOF // clean boundary; caller decides if it was expected
		}
		return 0, nil, fmt.Errorf("%w: truncated frame header: %v", ErrImageCorrupt, err)
	}
	n := binary.BigEndian.Uint32(hdr[1:5])
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("%w: frame claims %d payload bytes", ErrImageCorrupt, n)
	}
	if cap(*payload) < int(n) {
		*payload = make([]byte, n)
	}
	body = (*payload)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated frame payload: %v", ErrImageCorrupt, err)
	}
	var tail [4]byte
	if _, err := io.ReadFull(r, tail[:]); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated frame checksum: %v", ErrImageCorrupt, err)
	}
	crc := crc32.ChecksumIEEE(hdr[:1])
	crc = crc32.Update(crc, crc32.IEEETable, body)
	if got := binary.BigEndian.Uint32(tail[:]); got != crc {
		return 0, nil, fmt.Errorf("%w: frame checksum %#x, want %#x", ErrImageCorrupt, got, crc)
	}
	return hdr[0], body, nil
}

// LoadImage reconstructs a device previously serialized with SaveImage. On
// any error — a missing magic, truncation, bit damage, duplicate or
// out-of-range indices — no device is returned: a partially-reconstructed
// device must never reach recovery.
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
	return loadFrames(br)
}

func loadFrames(r io.Reader) (*Device, error) {
	var scratch []byte
	typ, body, err := readFrame(r, &scratch)
	if err != nil {
		if err == io.EOF {
			return nil, fmt.Errorf("%w: image ends before the header frame", ErrImageCorrupt)
		}
		return nil, err
	}
	if typ != frameHeader {
		return nil, fmt.Errorf("%w: first frame type %d, want header", ErrImageCorrupt, typ)
	}
	var hdr imageHeader
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&hdr); err != nil {
		return nil, fmt.Errorf("nand: decoding image header: %w", err)
	}
	if hdr.Version != imageVersion {
		return nil, fmt.Errorf("nand: image version %d, want %d", hdr.Version, imageVersion)
	}
	if err := hdr.Cfg.Validate(); err != nil {
		return nil, fmt.Errorf("nand: image has invalid config: %w", err)
	}
	d := New(hdr.Cfg)
	d.stats = hdr.Stats
	if hdr.HasAnchor {
		d.anchor = hdr.Anchor.clone()
	}

	seen := make(map[int]bool)
	var segFrames, pagesTotal uint64
	for {
		typ, body, err = readFrame(r, &scratch)
		if err != nil {
			if err == io.EOF {
				return nil, fmt.Errorf("%w: image ends without an end frame", ErrImageCorrupt)
			}
			return nil, err
		}
		if typ == frameEnd {
			if len(body) != 16 {
				return nil, fmt.Errorf("%w: end frame is %d bytes, want 16", ErrImageCorrupt, len(body))
			}
			if got := binary.BigEndian.Uint64(body[0:8]); got != segFrames {
				return nil, fmt.Errorf("%w: end frame promises %d segments, image carries %d",
					ErrImageCorrupt, got, segFrames)
			}
			if got := binary.BigEndian.Uint64(body[8:16]); got != pagesTotal {
				return nil, fmt.Errorf("%w: end frame promises %d pages, image carries %d",
					ErrImageCorrupt, got, pagesTotal)
			}
			// Nothing may follow the end frame.
			if _, _, err := readFrame(r, &scratch); err != io.EOF {
				return nil, fmt.Errorf("%w: data after the end frame", ErrImageCorrupt)
			}
			return d, nil
		}
		if typ != frameSeg {
			return nil, fmt.Errorf("%w: unexpected frame type %d", ErrImageCorrupt, typ)
		}
		n, err := decodeSegmentFrame(d, body, seen)
		if err != nil {
			return nil, err
		}
		segFrames++
		pagesTotal += uint64(n)
	}
}

// decodeSegmentFrame applies one segment frame to d, rejecting duplicate
// segment indices (seen) and malformed page lists.
func decodeSegmentFrame(d *Device, body []byte, seen map[int]bool) (pages int, err error) {
	cfg := d.cfg
	rd := bytes.NewReader(body)
	var fixed [13]byte
	if _, err := io.ReadFull(rd, fixed[:]); err != nil {
		return 0, fmt.Errorf("%w: short segment frame", ErrImageCorrupt)
	}
	idx := int(binary.BigEndian.Uint32(fixed[0:4]))
	nextProg := int(binary.BigEndian.Uint32(fixed[4:8]))
	erases := int(binary.BigEndian.Uint32(fixed[8:12]))
	health := Health(fixed[12])
	var cnt [4]byte
	if _, err := io.ReadFull(rd, cnt[:]); err != nil {
		return 0, fmt.Errorf("%w: short segment frame", ErrImageCorrupt)
	}
	nPages := int(binary.BigEndian.Uint32(cnt[:]))

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
	if nPages < 0 || nPages > cfg.PagesPerSegment {
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
	prev := -1
	var phdr [4 + OOBSize + 8 + 4]byte
	for k := 0; k < nPages; k++ {
		if _, err := io.ReadFull(rd, phdr[:]); err != nil {
			return 0, fmt.Errorf("%w: segment %d truncated at page %d", ErrImageCorrupt, idx, k)
		}
		pi := int(binary.BigEndian.Uint32(phdr[0:4]))
		if pi <= prev || pi >= cfg.PagesPerSegment {
			// Covers out-of-range, duplicates, and reordering in one check:
			// the writer emits strictly ascending page indices.
			return 0, fmt.Errorf("%w: segment %d page index %d after %d", ErrImageCorrupt, idx, pi, prev)
		}
		prev = pi
		p := &s.pages[pi]
		p.state = pageProgrammed
		copy(p.oob[:], phdr[4:4+OOBSize])
		p.fp = binary.BigEndian.Uint64(phdr[4+OOBSize : 4+OOBSize+8])
		dlen := int(binary.BigEndian.Uint32(phdr[4+OOBSize+8:]))
		switch dlen {
		case 0:
			p.data = nil
		case cfg.SectorSize:
			p.data = make([]byte, dlen)
			if _, err := io.ReadFull(rd, p.data); err != nil {
				return 0, fmt.Errorf("%w: segment %d page %d payload truncated", ErrImageCorrupt, idx, pi)
			}
		default:
			return 0, fmt.Errorf("%w: segment %d page %d payload %d bytes, want 0 or %d",
				ErrImageCorrupt, idx, pi, dlen, cfg.SectorSize)
		}
	}
	if rd.Len() != 0 {
		return 0, fmt.Errorf("%w: segment %d frame has %d trailing bytes", ErrImageCorrupt, idx, rd.Len())
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

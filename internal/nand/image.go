package nand

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"iosnap/internal/codec"
	"iosnap/internal/sim"
)

// A device image is a magic string followed by frames of the shared codec
// (internal/codec) — one header frame, one frame per *touched* segment, and
// an end frame carrying totals. Both directions spread the segment frames
// over a small worker pool (inOrder). SaveImage's workers each stage a whole
// frame and checksum it while the caller writes finished frames, in segment
// order, to any io.Writer. LoadImage takes the image whole — mapped private
// to the process when it is a file on Linux, read once otherwise — and walks
// its frame headers while the workers verify and decode frames where they
// lie and the caller installs them in image order; a segment's frame then
// stays its payload store. At most framesPerWorker frames per worker are
// in flight, so a save adds O(workers × segment) of heap and a load
// nothing beyond the image, never O(device) — which is what lets a
// TB-class geometry persist through an ordinary file handle. Untouched
// segments (never programmed, never erased, healthy) are not framed at
// all, so a sparse huge device images in O(touched) bytes. Every frame
// carries a CRC32 and the end frame carries segment/page counts: a
// truncated, torn, or bit-flipped image fails loudly, with the error of
// its earliest bad frame whatever order the workers finish in, and no
// partial device is ever returned.
//
// This is format version 5, the only one read or written; a stream that
// does not open with its magic — an image of an older version among them —
// is refused as corrupt.
const imageVersion = 5

// imageMagic begins every image.
const imageMagic = "ioSnapImg5\n"

// maxFramePayload bounds a single frame so a corrupt length field cannot
// claim more than any geometry writes. Frames after the header are held to
// the tighter maxSegFrame of the image's geometry.
const maxFramePayload = 1 << 30

// The header frame's payload: u32 version; the Config, field by field in
// declaration order, every integer and duration a u64, each flag a u8, the
// wear-out probability as its float64 bits, with a u8 1 after StoreData
// (pages program in order; an image that says 0 is refused); the Stats
// counters as u64s; a u8 anchor flag and, when set, the anchor's u64 ID and
// its u32-counted u64 page addresses.
//
// A segment frame's payload: segFixedLen bytes of u32 index, u32 nextProg,
// u32 erases, u8 health, u32 programmedPages, which equals nextProg; then
// per programmed page, 0 to nextProg-1, a pageRecLen record of u32
// pageIndex, OOBSize bytes OOB, u64 fingerprint, u32 dataLen, followed by
// dataLen payload bytes: SectorSize on a StoreData device, 0 on a
// fingerprint-mode one. A StoreData segment's payloads therefore lie
// pageRecLen+SectorSize apart, which is what lets a load keep them where
// they are.
//
// The end frame's payload: u64 segment frames, u64 programmed pages.
const (
	segFixedLen = 4 + 4 + 4 + 1 + 4
	pageRecLen  = 4 + OOBSize + 8 + 4
)

// maxImageWorkers caps the goroutines one SaveImage or LoadImage runs
// beside its caller, and framesPerWorker is how many frames per worker may
// be staged or loaded but not yet written or installed.
const (
	maxImageWorkers = 4
	framesPerWorker = 2
)

// ErrImageCorrupt reports a structurally damaged image: bad CRC, truncated
// frame, a header that does not decode, duplicate or out-of-range indices,
// or totals that do not add up.
var ErrImageCorrupt = errors.New("nand: image corrupt")

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
// per page of a segment, and the payload store, which is smaller than the
// frame — are held to the frame bound too, so a crafted header can neither
// panic New nor ask for more memory in one allocation than a frame may. Together these keep TotalPages (< 2^25 segments ×
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

// inOrder is the codec's pipeline. next fills in the next job, or reports
// that there is none; work does a job on one of up to maxImageWorkers
// goroutines (one per usable core); finish consumes finished jobs on the
// caller's goroutine in the order next produced them. At most
// framesPerWorker jobs per worker are in flight, and a job's slot — with
// any buffer it keeps — is handed to next again only after finish has
// consumed it. inOrder stops at the first error: finish's error for a job
// already in flight wins over next's, since it concerns an earlier frame.
// Jobs still queued then are skipped, and no worker outlives the call.
func inOrder[J any](next func(*J) (bool, error), work func(*J), finish func(*J) error) error {
	workers := min(runtime.GOMAXPROCS(0), maxImageWorkers)
	slots := make([]struct {
		job  J
		done chan struct{}
	}, framesPerWorker*workers)
	queue := make(chan int, len(slots)) // one send per job in flight: dispatch never blocks
	var stop atomic.Bool
	var wg sync.WaitGroup
	defer func() {
		stop.Store(true)
		close(queue)
		wg.Wait()
	}()
	started, head, inFlight := 0, 0, 0
	oldest := func() error {
		s := &slots[(head-inFlight)%len(slots)]
		<-s.done
		inFlight--
		return finish(&s.job)
	}
	for {
		if inFlight == len(slots) {
			if err := oldest(); err != nil {
				return err
			}
		}
		s := &slots[head%len(slots)]
		more, err := next(&s.job)
		if err != nil || !more {
			for inFlight > 0 {
				if ferr := oldest(); ferr != nil {
					return ferr
				}
			}
			return err
		}
		if s.done == nil {
			s.done = make(chan struct{}, 1)
		}
		if started < workers {
			started++
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range queue {
					if !stop.Load() {
						work(&slots[i].job)
					}
					slots[i].done <- struct{}{}
				}
			}()
		}
		queue <- head % len(slots)
		head++
		inFlight++
	}
}

// segJob is one segment frame on its way out. frame is the slot's staging
// buffer, kept from one segment to the next.
type segJob struct {
	seg   int
	frame []byte
	pages int
}

// SaveImage serializes the device (configuration, wear, page contents) to
// w. Workers stage each touched segment's frame whole while this goroutine
// writes the finished ones in segment order through a 64 KiB buffer, which
// a whole frame mostly bypasses; the writer may be a plain file handle and
// the device TB-class. Together with LoadImage it gives the CLI and the
// storage server persistent device images across process lifetimes.
func (d *Device) SaveImage(w io.Writer) error {
	if err := checkImageGeometry(d.cfg); err != nil {
		return fmt.Errorf("nand: device cannot be imaged: %v", err)
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	hdr := codec.Writer{B: []byte(imageMagic)}
	appendHeader(&hdr, d.cfg, d.stats, d.anchor)
	if _, err := bw.Write(hdr.B); err != nil {
		return fmt.Errorf("nand: writing image header: %w", err)
	}

	var segFrames, pagesTotal uint64
	i := 0
	err := inOrder(func(j *segJob) (bool, error) {
		for i < len(d.segs) && !d.segs[i].touched() {
			i++
		}
		if i == len(d.segs) {
			return false, nil
		}
		j.seg = i
		i++
		return true, nil
	}, func(j *segJob) {
		j.frame, j.pages = d.stageSegment(j.frame, j.seg)
	}, func(j *segJob) error {
		if _, err := bw.Write(j.frame); err != nil {
			return fmt.Errorf("nand: writing segment %d: %w", j.seg, err)
		}
		segFrames++
		pagesTotal += uint64(j.pages)
		return nil
	})
	if err != nil {
		return err
	}

	var end codec.Writer
	start := end.Begin(codec.ImageEnd)
	end.U64(segFrames)
	end.U64(pagesTotal)
	end.End(start)
	if _, err := bw.Write(end.B); err != nil {
		return fmt.Errorf("nand: writing end frame: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("nand: flushing image: %w", err)
	}
	return nil
}

// appendHeader appends the header frame of a device with this
// configuration, these counters and this anchor (nil for none).
func appendHeader(w *codec.Writer, cfg Config, st Stats, anchor *Anchor) {
	start := w.Begin(codec.ImageHeader)
	w.U32(imageVersion)
	for _, v := range []int64{int64(cfg.SectorSize), int64(cfg.PagesPerSegment), int64(cfg.Segments),
		int64(cfg.Channels), int64(cfg.ReadLatency), int64(cfg.ProgramLatency), int64(cfg.EraseLatency),
		int64(cfg.OOBScanPerPage), int64(cfg.ReadBusMBps), int64(cfg.WriteBusMBps), int64(cfg.EraseEndurance)} {
		w.U64(uint64(v))
	}
	w.Bool(cfg.StoreData)
	w.Bool(true) // pages program in order, which the segment frames rely on
	w.U64(uint64(cfg.WearOutThreshold))
	w.U64(math.Float64bits(cfg.WearOutProb))
	w.U64(cfg.WearSeed)
	for _, v := range []int64{st.PageReads, st.PagePrograms, st.Erases, st.OOBScans, st.BytesRead, st.BytesWritten} {
		w.U64(uint64(v))
	}
	w.Bool(anchor != nil)
	if anchor != nil {
		w.U64(anchor.ID)
		w.U32(uint32(len(anchor.Addrs)))
		for _, a := range anchor.Addrs {
			w.U64(uint64(a))
		}
	}
	w.End(start)
}

// decodeHeader reads what appendHeader wrote: every field, no byte more,
// and no anchor address the payload has not paid for.
func decodeHeader(payload []byte) (cfg Config, st Stats, anchor *Anchor, err error) {
	r := codec.Reader{B: payload}
	if v := r.U32(); v != imageVersion {
		return Config{}, Stats{}, nil, fmt.Errorf("version %d, want %d", v, imageVersion)
	}
	i64 := func() int64 { return int64(r.U64()) }
	cfg = Config{
		SectorSize: int(i64()), PagesPerSegment: int(i64()), Segments: int(i64()), Channels: int(i64()),
		ReadLatency: sim.Duration(i64()), ProgramLatency: sim.Duration(i64()),
		EraseLatency: sim.Duration(i64()), OOBScanPerPage: sim.Duration(i64()),
		ReadBusMBps: int(i64()), WriteBusMBps: int(i64()), EraseEndurance: int(i64()),
		StoreData: r.Bool(),
	}
	inOrder := r.Bool()
	cfg.WearOutThreshold, cfg.WearOutProb, cfg.WearSeed = int(i64()), math.Float64frombits(r.U64()), r.U64()
	st = Stats{PageReads: i64(), PagePrograms: i64(), Erases: i64(), OOBScans: i64(), BytesRead: i64(), BytesWritten: i64()}
	if r.Bool() {
		anchor = &Anchor{ID: r.U64()}
		anchor.Addrs = make([]PageAddr, r.Count(uint64(r.U32()), 8))
		for k := range anchor.Addrs {
			anchor.Addrs[k] = PageAddr(r.U64())
		}
	}
	if r.Err() != nil || r.Rest() != 0 {
		return Config{}, Stats{}, nil, fmt.Errorf("%d-byte payload does not decode (%v, %d bytes left)", len(payload), r.Err(), r.Rest())
	}
	if !inOrder {
		return Config{}, Stats{}, nil, errors.New("a device that programs out of order")
	}
	return cfg, st, anchor, nil
}

// stageSegment stages segment i's whole frame in buf's storage and returns
// it with the number of programmed pages it carries. The frame's length is
// summed from the page list first, so buf grows at most once.
func (d *Device) stageSegment(buf []byte, i int) ([]byte, int) {
	s := &d.segs[i]
	programmed, n := 0, codec.Overhead+segFixedLen
	for j := range s.pages {
		if p := &s.pages[j]; p.state == pageProgrammed {
			programmed++
			n += pageRecLen + len(d.payload(s, j))
		}
	}
	w := codec.Writer{B: slices.Grow(buf[:0], n)}
	start := w.Begin(codec.ImageSegment)
	w.U32(uint32(i))
	w.U32(uint32(s.nextProg))
	w.U32(uint32(s.erases))
	w.U8(byte(s.health))
	w.U32(uint32(programmed))
	for j := range s.pages {
		p := &s.pages[j]
		if p.state != pageProgrammed {
			continue
		}
		w.U32(uint32(j))
		w.B = append(w.B, p.oob[:]...)
		w.U64(p.fingerprint())
		w.Bytes(d.payload(s, j))
	}
	w.End(start)
	return w.B, programmed
}

// frameErr reports damage to the image's frame at byte off.
func frameErr(off int, err error) error {
	return fmt.Errorf("%w: frame at byte %d: %w", ErrImageCorrupt, off, err)
}

// LoadImage reconstructs a device previously serialized with SaveImage,
// reading r to its end. On Linux an *os.File at its first byte is not read
// but mapped, private to this process: a segment's payload store is then
// its frame's region of the mapping, and the first program or copy into
// one of its pages makes the kernel copy that page of the mapping, so no
// write through the device reaches the file. The device owns the mapping,
// which is unmapped once the device is unreachable. Any other source — a
// bytes.Reader, a vfs file, a file the kernel will not map — is read once,
// into a buffer of its exact size when it reports one, and segments'
// stores are regions of that buffer. A frame holds only the pages the
// segment had programmed: the first program past them, on the resumed log
// head say, copies them into a store of the segment's own. On
// any error — a missing magic, truncation, bit damage, duplicate or
// out-of-range indices, a geometry no image can carry — no device is
// returned: a partially-reconstructed device must never reach recovery.
func LoadImage(r io.Reader) (*Device, error) {
	if f, ok := r.(*os.File); ok {
		if img := mapImage(f); img != nil {
			d, err := decodeImage(img)
			if err != nil {
				unmapImage(img)
				return nil, err
			}
			d.image = &imageMapping{img}
			runtime.SetFinalizer(d.image, func(m *imageMapping) { unmapImage(m.b) })
			return d, nil
		}
	}
	img, err := readImage(r)
	if err != nil {
		return nil, fmt.Errorf("nand: reading image: %w", err)
	}
	return decodeImage(img)
}

// readImage reads r to its end in one buffer, sized up front from what r
// reports — Len, as bytes.Reader and the vfs fake's files have, or Stat,
// as a file has — so that it is allocated once.
func readImage(r io.Reader) ([]byte, error) {
	size := 0
	switch r := r.(type) {
	case interface{ Len() int }:
		size = r.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := r.Stat(); err == nil && fi.Mode().IsRegular() {
			size = int(fi.Size())
		}
	}
	// ReadFrom wants MinRead bytes free before each read, the one that
	// finds the end included.
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// imageMapping owns the mapping a loaded device's segments' stores are
// regions of. Only the device refers to it, so its finalizer unmaps the
// image once the device is unreachable.
type imageMapping struct{ b []byte }

// decodeImage builds the device the whole image img describes. Loaded
// payloads stay where img holds them.
func decodeImage(img []byte) (*Device, error) {
	if !bytes.HasPrefix(img, []byte(imageMagic)) {
		return nil, fmt.Errorf("%w: stream does not open with the image magic", ErrImageCorrupt)
	}
	d, off, err := loadHeader(img, len(imageMagic))
	if err != nil {
		return nil, err
	}
	if err := loadSegments(img, off, d); err != nil {
		return nil, err
	}
	return d, nil
}

// loadHeader decodes the header frame at off and builds the empty device
// it describes; it returns the offset of the frame after it.
func loadHeader(img []byte, off int) (*Device, int, error) {
	typ, body, n, err := codec.Open(img[off:], maxFramePayload)
	if err != nil {
		return nil, 0, frameErr(off, err)
	}
	if typ != codec.ImageHeader {
		return nil, 0, fmt.Errorf("%w: first frame type %d, want header", ErrImageCorrupt, typ)
	}
	cfg, st, anchor, err := decodeHeader(body)
	if err != nil {
		return nil, 0, fmt.Errorf("%w: header at byte %d: %v", ErrImageCorrupt, off, err)
	}
	if err := cfg.Validate(); err != nil {
		return nil, 0, fmt.Errorf("%w: invalid config: %v", ErrImageCorrupt, err)
	}
	if err := checkImageGeometry(cfg); err != nil {
		return nil, 0, fmt.Errorf("%w: geometry: %v", ErrImageCorrupt, err)
	}
	d := New(cfg)
	d.stats = st
	d.anchor = anchor
	return d, off + n, nil
}

// loadJob is one segment frame on its way in — where it starts, the whole
// frame and its payload — and what a worker made of it.
type loadJob struct {
	off         int
	frame, body []byte
	seg         segment
	idx         int
	pages       int
	err         error
}

// loadSegments applies the segment frames from off on and checks the end
// frame. This goroutine walks the frame headers; workers verify and decode
// each frame where it lies, and this goroutine installs the decoded
// segments in image order, so the error reported is the earliest bad
// frame's.
func loadSegments(img []byte, off int, d *Device) error {
	limit := int(maxSegFrame(d.cfg))
	seen := make(map[int]bool)
	var segFrames, pagesTotal uint64
	err := inOrder(func(j *loadJob) (bool, error) {
		typ, body, n, err := codec.Cut(img[off:], limit)
		if err != nil {
			return false, frameErr(off, err)
		}
		if typ != codec.ImageSegment {
			return false, nil // the end frame, checked once every segment is in
		}
		j.off, j.frame, j.body = off, img[off:off+n], body
		off += n
		return true, nil
	}, func(j *loadJob) {
		j.seg = segment{}
		if j.err = codec.Check(j.frame); j.err != nil {
			j.err = frameErr(j.off, j.err)
		} else {
			j.idx, j.pages, j.err = d.decodeSegmentFrame(j.body, &j.seg)
		}
	}, func(j *loadJob) error {
		if j.err != nil {
			return j.err
		}
		if seen[j.idx] {
			return fmt.Errorf("%w: duplicate segment %d", ErrImageCorrupt, j.idx)
		}
		seen[j.idx] = true
		d.segs[j.idx], j.seg = j.seg, segment{}
		segFrames++
		pagesTotal += uint64(j.pages)
		return nil
	})
	if err != nil {
		return err
	}

	typ, body, n, err := codec.Open(img[off:], limit)
	if err != nil {
		return frameErr(off, err)
	}
	if typ != codec.ImageEnd {
		return fmt.Errorf("%w: unexpected frame type %d", ErrImageCorrupt, typ)
	}
	r := codec.Reader{B: body}
	gotSegs, gotPages := r.U64(), r.U64()
	switch {
	case r.Err() != nil || r.Rest() != 0:
		return fmt.Errorf("%w: end frame is %d bytes, want 16", ErrImageCorrupt, len(body))
	case gotSegs != segFrames:
		return fmt.Errorf("%w: end frame promises %d segments, image carries %d", ErrImageCorrupt, gotSegs, segFrames)
	case gotPages != pagesTotal:
		return fmt.Errorf("%w: end frame promises %d pages, image carries %d", ErrImageCorrupt, gotPages, pagesTotal)
	}
	// Nothing may follow the end frame.
	if off+n != len(img) {
		return fmt.Errorf("%w: data after the end frame", ErrImageCorrupt)
	}
	return nil
}

// decodeSegmentFrame decodes one segment frame into s, a zero segment of
// d, and returns the segment's index and how many pages it programs,
// rejecting an out-of-range index, a page list other than 0 to nextProg-1
// (pages program in order) and a payload length other than the device's
// (the sector size with StoreData, else 0). A StoreData segment adopts
// body, where its payloads lie at a fixed stride, as its store, so
// programming or copying into one of those pages later rewrites that page's
// bytes of body and no neighbour's, and the first program past them moves
// the store to a slab (slot).
func (d *Device) decodeSegmentFrame(body []byte, s *segment) (idx, pages int, err error) {
	cfg := d.cfg
	r := codec.Reader{B: body}
	idx = int(r.U32())
	nextProg := int(r.U32())
	erases := int(r.U32())
	health := Health(r.U8())
	nPages := int(r.U32())
	switch {
	case r.Err() != nil:
		return 0, 0, fmt.Errorf("%w: short segment frame", ErrImageCorrupt)
	case idx >= cfg.Segments:
		return 0, 0, fmt.Errorf("%w: segment index %d out of range", ErrImageCorrupt, idx)
	case nextProg > cfg.PagesPerSegment:
		return 0, 0, fmt.Errorf("%w: segment %d nextProg %d out of range", ErrImageCorrupt, idx, nextProg)
	case nPages != nextProg || r.Count(uint64(nPages), pageRecLen) != nPages:
		return 0, 0, fmt.Errorf("%w: segment %d claims %d pages, next program at %d", ErrImageCorrupt, idx, nPages, nextProg)
	case health > Retired:
		return 0, 0, fmt.Errorf("%w: segment %d health %d unknown", ErrImageCorrupt, idx, health)
	}

	s.nextProg = nextProg
	s.erases = erases
	s.health = health
	if nPages > 0 {
		d.materialize(s)
	}
	dataLen := 0
	if cfg.StoreData {
		dataLen = cfg.SectorSize
	}
	for k := 0; k < nPages; k++ {
		pi := int(r.U32())
		oob := r.Raw(OOBSize)
		fp := r.U64()
		data := r.Bytes()
		if r.Err() != nil {
			return 0, 0, fmt.Errorf("%w: segment %d truncated at page %d", ErrImageCorrupt, idx, k)
		}
		if pi != k {
			return 0, 0, fmt.Errorf("%w: segment %d page %d has index %d", ErrImageCorrupt, idx, k, pi)
		}
		if len(data) != dataLen {
			return 0, 0, fmt.Errorf("%w: segment %d page %d payload %d bytes, want %d",
				ErrImageCorrupt, idx, pi, len(data), dataLen)
		}
		p := &s.pages[pi]
		p.state = pageProgrammed
		copy(p.oob[:], oob)
		binary.LittleEndian.PutUint64(p.fp[:], fp)
	}
	if r.Rest() != 0 {
		return 0, 0, fmt.Errorf("%w: segment %d frame has %d trailing bytes", ErrImageCorrupt, idx, r.Rest())
	}
	if cfg.StoreData && nPages > 0 {
		// Every record carries a sector of payload, so page k's payload
		// starts k records after page 0's.
		s.data, s.stride = body[segFixedLen+pageRecLen:], pageRecLen+cfg.SectorSize
	}
	return idx, nPages, nil
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
	h = mix64(h, boolBit(d.cfg.StoreData)<<1|1) // the second bit: pages program in order
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
			h = mix64(h, p.fingerprint())
			h = hashWords(h, d.payload(s, j))
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

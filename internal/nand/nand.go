// Package nand simulates a NAND flash device at the level an FTL programs
// against: segments (erase blocks) of pages, each page carrying a payload
// and an out-of-band (OOB) header area, with the three native operations —
// read page, program page, erase segment — and their asymmetric costs.
//
// The simulator enforces the physical contract that makes Remap-on-Write
// necessary in the first place: a programmed page cannot be reprogrammed
// until its whole segment is erased. It also models the device's internal
// parallelism (pages stripe across channels) and a shared transfer bus, so
// sequential streams reach multi-GB/s while single-threaded random reads are
// latency-bound — the same first-order behaviour as the paper's Fusion-io
// card.
//
// To keep multi-gigabyte experiments cheap, payload storage is optional:
// with Config.StoreData=false the device keeps only a 64-bit fingerprint of
// each payload (enough for integrity checks) while timing and OOB metadata
// remain exact. With StoreData, payloads live in one store per segment,
// beside a page table of pointer-free records (state, OOB, fingerprint), so
// the host memory a physical page costs beyond its payload is 41 bytes that
// the garbage collector never scans.
package nand

import (
	"encoding/binary"
	"errors"
	"fmt"

	"iosnap/internal/sim"
)

// PageAddr is a physical page address: segment*PagesPerSegment + page index.
type PageAddr uint64

// InvalidPage is a sentinel PageAddr that no device contains.
const InvalidPage = PageAddr(1<<64 - 1)

// OOBSize is the number of out-of-band bytes stored alongside each page.
// The FTL uses this area for the block header (LBA, epoch, type).
const OOBSize = 32

// Errors returned by device operations.
var (
	ErrBadAddress   = errors.New("nand: address out of range")
	ErrNotErased    = errors.New("nand: program of non-erased page")
	ErrReadErased   = errors.New("nand: read of erased page")
	ErrBadSize      = errors.New("nand: payload size != sector size")
	ErrWornOut      = errors.New("nand: segment exceeded erase endurance")
	ErrOutOfOrder   = errors.New("nand: program not at next free page of segment")
	ErrDeviceFailed = errors.New("nand: injected device failure")
	ErrTransient    = errors.New("nand: transient device error")
	ErrRetired      = errors.New("nand: segment retired")
	// ErrCorruptData reports a payload whose bytes no longer match the
	// fingerprint recorded when the page was programmed — the device-level
	// ECC/CRC analogue. Returned by reads when a corruption-injecting fault
	// hook is armed (the check is skipped on clean devices, where stored
	// bytes cannot diverge from the fingerprint).
	ErrCorruptData = errors.New("nand: payload corruption detected")
)

// Health classifies a segment's media condition. Healthy segments behave
// normally; Suspect segments have seen a permanent-looking failure and are
// candidates for rescue; Retired segments are grown bad blocks — the device
// refuses to program or erase them (reads of surviving pages still work, so
// a rescue in progress can finish).
type Health uint8

// Segment health states.
const (
	Healthy Health = iota
	Suspect
	Retired
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Suspect:
		return "suspect"
	case Retired:
		return "retired"
	default:
		return fmt.Sprintf("health(%d)", int(h))
	}
}

// Op identifies a device operation for fault injection and statistics.
type Op int

// Device operations.
const (
	OpRead Op = iota
	OpProgram
	OpErase
	OpScanOOB
	// OpCopy is consulted (in addition to OpRead and OpProgram) when the
	// cleaner moves a page with CopyPage, so fault plans can target
	// copy-forward traffic without also failing foreground I/O.
	OpCopy
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpProgram:
		return "program"
	case OpErase:
		return "erase"
	case OpScanOOB:
		return "scan-oob"
	case OpCopy:
		return "copy"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// FaultHook intercepts device operations for failure injection. The device
// consults it (when non-nil) before executing any operation, and gives it a
// chance to corrupt header bytes as they are programmed — the two primitives
// from which read/program/erase errors, torn log notes, and crash-at-
// operation-N scenarios are built. A nil hook costs one pointer check per
// operation.
type FaultHook interface {
	// BeforeOp is consulted before op executes; a non-nil error aborts the
	// operation with that error and no device state change.
	BeforeOp(op Op, addr PageAddr) error
	// MutateOOB may corrupt the OOB header bytes being programmed at addr
	// (a torn or corrupted header). It returns the bytes to store;
	// returning oob unchanged stores the caller's header verbatim. It must
	// not modify oob in place.
	MutateOOB(addr PageAddr, oob []byte) []byte
}

// DataCorrupter is an optional FaultHook extension for payload corruption.
// When the installed hook also implements it, the device consults it at the
// two points where payload bytes are in flight:
//
//   - on program, the returned bytes are what the cells actually store while
//     the page's fingerprint is still computed from the caller's intended
//     bytes (bits flipped after ECC was computed) — so every later read of
//     the page detects the divergence and fails with ErrCorruptData;
//   - on read, the returned bytes are what the host receives for this one
//     transfer; the device's stored bytes are untouched, so a re-read can
//     succeed (a transient transfer corruption).
//
// Returning data unchanged injects nothing. Implementations must not modify
// data in place — a read hands them device-owned memory.
type DataCorrupter interface {
	CorruptData(op Op, addr PageAddr, data []byte) []byte
}

// FaultFunc adapts a plain before-op function to FaultHook (no OOB
// corruption).
type FaultFunc func(op Op, addr PageAddr) error

// BeforeOp implements FaultHook.
func (fn FaultFunc) BeforeOp(op Op, addr PageAddr) error { return fn(op, addr) }

// MutateOOB implements FaultHook; it never corrupts anything.
func (FaultFunc) MutateOOB(_ PageAddr, oob []byte) []byte { return oob }

// Config describes device geometry and timing. The zero value is not usable;
// call DefaultConfig and adjust.
type Config struct {
	SectorSize      int // payload bytes per page (512 or 4096)
	PagesPerSegment int // pages per erase block
	Segments        int // erase blocks on the device
	Channels        int // parallel channels; pages stripe across them

	ReadLatency    sim.Duration // per-page read (cell + transfer setup)
	ProgramLatency sim.Duration // per-page program
	EraseLatency   sim.Duration // per-segment erase
	OOBScanPerPage sim.Duration // per-page cost of a bulk OOB (header) scan

	ReadBusMBps  int // shared read-path bandwidth cap, MB/s
	WriteBusMBps int // shared write-path bandwidth cap, MB/s

	EraseEndurance int  // max erases per segment; 0 = unlimited
	StoreData      bool // keep payloads (true) or fingerprints only (false)

	// Wear-out model: once a segment has been erased WearOutThreshold times,
	// each further erase fails with ErrWornOut with probability WearOutProb.
	// This is the soft, probabilistic aging real flash exhibits, as opposed
	// to EraseEndurance's hard cliff. WearOutThreshold 0 disables the model.
	// Failures draw from a generator seeded with WearSeed, so a given
	// operation sequence wears out reproducibly.
	WearOutThreshold int
	WearOutProb      float64
	WearSeed         uint64
}

// DefaultConfig returns a configuration calibrated so that the vanilla FTL's
// baseline microbenchmarks land near the paper's Table 2 (≈1.6 GB/s
// sequential writes, ≈1.2 GB/s sequential reads, ≈310 MB/s 2-thread random
// reads on 4 KB sectors). size-defining fields (Segments) are modest; tests
// and experiments override them.
func DefaultConfig() Config {
	return Config{
		SectorSize:      4096,
		PagesPerSegment: 1024,
		Segments:        256,
		Channels:        16,
		ReadLatency:     25 * sim.Microsecond,
		ProgramLatency:  40 * sim.Microsecond,
		EraseLatency:    2 * sim.Millisecond,
		OOBScanPerPage:  300 * sim.Nanosecond,
		ReadBusMBps:     1250,
		WriteBusMBps:    1700,
		EraseEndurance:  0,
		StoreData:       false,
	}
}

// MiBSegments is the device the commands format from their -megabytes and
// -sector flags: DefaultConfig with megabytes segments of 1 MiB, pages of
// sector bytes, payloads stored. A sector that is not positive or does not
// fit a segment is an error naming the flag.
func MiBSegments(megabytes, sector int) (Config, error) {
	if sector <= 0 || sector > 1<<20 {
		return Config{}, fmt.Errorf("-sector %d: want a positive size of at most a 1 MiB segment", sector)
	}
	c := DefaultConfig()
	c.SectorSize = sector
	c.PagesPerSegment = (1 << 20) / sector
	c.Segments = megabytes
	c.StoreData = true
	return c, nil
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.SectorSize <= 0:
		return fmt.Errorf("nand: SectorSize %d must be positive", c.SectorSize)
	case c.PagesPerSegment <= 0:
		return fmt.Errorf("nand: PagesPerSegment %d must be positive", c.PagesPerSegment)
	case c.Segments <= 0:
		return fmt.Errorf("nand: Segments %d must be positive", c.Segments)
	case c.Channels <= 0:
		return fmt.Errorf("nand: Channels %d must be positive", c.Channels)
	case c.ReadLatency < 0 || c.ProgramLatency < 0 || c.EraseLatency < 0:
		return errors.New("nand: latencies must be non-negative")
	case c.WearOutThreshold < 0:
		return fmt.Errorf("nand: WearOutThreshold %d must be non-negative", c.WearOutThreshold)
	case c.WearOutProb < 0 || c.WearOutProb > 1:
		return fmt.Errorf("nand: WearOutProb %g outside [0,1]", c.WearOutProb)
	}
	return nil
}

// TotalPages returns the number of physical pages on a device with this
// configuration.
func (c Config) TotalPages() int64 {
	return int64(c.Segments) * int64(c.PagesPerSegment)
}

// Capacity returns raw device capacity in bytes.
func (c Config) Capacity() int64 {
	return c.TotalPages() * int64(c.SectorSize)
}

type pageState uint8

const (
	pageErased pageState = iota
	pageProgrammed
)

// page is one physical page's record: 41 bytes, with no padding and no
// pointer, so a segment's page array is one allocation the garbage
// collector never scans. Its payload lives in its segment's store.
type page struct {
	state pageState
	oob   [OOBSize]byte
	fp    [8]byte // payload fingerprint, little-endian (always kept)
}

// fingerprint returns the page's payload fingerprint.
func (p *page) fingerprint() uint64 { return binary.LittleEndian.Uint64(p.fp[:]) }

// segment is one erase block: its page records and, on a StoreData device,
// its payload store data, where page i's payload starts at i*stride (read
// through payload, written through slot). A loaded segment's store is its
// frame in the image, where payloads lie pageRecLen+SectorSize apart and
// reach only as far as the pages the image holds; otherwise, and from the
// first program past that, it is a slab of PagesPerSegment sectors at
// stride SectorSize. Either is kept across erases.
type segment struct {
	pages    []page
	data     []byte
	stride   int
	nextProg int // next page to program: pages program in order, so 0..nextProg-1 are programmed
	erases   int
	health   Health
}

// Stats counts device activity since construction or the last ResetStats.
type Stats struct {
	PageReads    int64
	PagePrograms int64
	Erases       int64
	OOBScans     int64 // segments scanned
	BytesRead    int64
	BytesWritten int64
}

// Device is a simulated NAND flash device. It is not safe for concurrent
// use; the simulation is single-threaded over virtual time by design.
type Device struct {
	cfg      Config
	segs     []segment
	channels []sim.Resource
	readBus  busModel
	writeBus busModel
	stats    Stats
	wearRNG  *sim.RNG // draws wear-out erase failures; nil when model off

	anchor *Anchor // newest committed checkpoint; nil = none

	hook FaultHook // nil = no fault injection

	image *imageMapping // the mapped image loaded segments' stores lie in; nil if none
}

// Anchor is the device's checkpoint anchor: the identity and chunk
// addresses of the newest committed checkpoint. Real FTLs keep a small
// fixed area (a superblock / checkpoint pack) that is rewritten only at
// checkpoint commit; we model it as device metadata updated atomically by
// SetAnchor, so a crash mid-checkpoint always leaves the previous anchor
// in place. The anchor only names pages — their contents still live in
// ordinary log pages and are validated (ID tag + checksum) at recovery.
type Anchor struct {
	ID    uint64
	Addrs []PageAddr
}

func (a *Anchor) clone() *Anchor {
	if a == nil {
		return nil
	}
	return &Anchor{ID: a.ID, Addrs: append([]PageAddr(nil), a.Addrs...)}
}

// busModel converts a byte count into occupancy of a shared bus resource.
type busModel struct {
	res       sim.Resource
	nsPerByte float64 // 0 disables the bus
}

func (b *busModel) acquire(now sim.Time, bytes int) (done sim.Time) {
	if b.nsPerByte == 0 {
		return now
	}
	cost := sim.Duration(float64(bytes) * b.nsPerByte)
	if cost < 1 {
		cost = 1
	}
	_, done = b.res.Acquire(now, cost)
	return done
}

func mbpsToNsPerByte(mbps int) float64 {
	if mbps <= 0 {
		return 0
	}
	// bytes/ns = mbps * 2^20 / 1e9; nsPerByte is the reciprocal.
	return 1e9 / (float64(mbps) * (1 << 20))
}

// New constructs a device. It panics on an invalid configuration (device
// construction is always program initialization, never data-dependent).
func New(cfg Config) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	d := &Device{
		cfg:      cfg,
		segs:     make([]segment, cfg.Segments),
		channels: make([]sim.Resource, cfg.Channels),
		readBus:  busModel{nsPerByte: mbpsToNsPerByte(cfg.ReadBusMBps)},
		writeBus: busModel{nsPerByte: mbpsToNsPerByte(cfg.WriteBusMBps)},
	}
	// A segment's page array and payload store are made at its first
	// program (materialize, slot): a TB-class geometry mounts in
	// O(touched-segments) host memory instead of paying a page record and
	// a sector per physical page up front.
	if cfg.WearOutThreshold > 0 {
		d.wearRNG = sim.NewRNG(cfg.WearSeed)
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// SetFaultHook installs (or, with nil, removes) the fault-injection hook.
func (d *Device) SetFaultHook(h FaultHook) { d.hook = h }

// FaultHook returns the installed fault-injection hook, if any.
func (d *Device) FaultHook() FaultHook { return d.hook }

// SetAnchor atomically replaces the checkpoint anchor (nil clears it).
func (d *Device) SetAnchor(a *Anchor) { d.anchor = a.clone() }

// Anchor returns a copy of the checkpoint anchor, or nil if none is set.
func (d *Device) Anchor() *Anchor { return d.anchor.clone() }

// Stats returns a snapshot of the activity counters.
func (d *Device) Stats() Stats { return d.stats }

// BusyUntil reports the virtual time at which every device resource —
// channels and both buses — is next idle: the earliest instant at which
// work submitted so far has fully completed. Cross-device coordination
// (the sharded front-end's snapshot-create barrier) uses it as the
// quiescence horizon when freezing several devices at one consistent
// point in virtual time.
func (d *Device) BusyUntil() sim.Time {
	t := d.readBus.res.BusyUntil()
	if w := d.writeBus.res.BusyUntil(); w > t {
		t = w
	}
	for i := range d.channels {
		if c := d.channels[i].BusyUntil(); c > t {
			t = c
		}
	}
	return t
}

// ResetStats zeroes the activity counters.
func (d *Device) ResetStats() { d.stats = Stats{} }

// SegmentOf returns the segment index containing addr.
func (d *Device) SegmentOf(addr PageAddr) int {
	return int(addr) / d.cfg.PagesPerSegment
}

// PageIndexOf returns addr's index within its segment.
func (d *Device) PageIndexOf(addr PageAddr) int {
	return int(addr) % d.cfg.PagesPerSegment
}

// Addr builds a PageAddr from a segment and page index.
func (d *Device) Addr(seg, idx int) PageAddr {
	return PageAddr(seg*d.cfg.PagesPerSegment + idx)
}

// erasedPage stands in for any page of a segment whose backing array has
// not been materialized (nothing was ever programmed there): reads observe
// it as erased. It must never be written through — write paths go via
// materialize, which makes the real array first.
var erasedPage page

func (d *Device) check(addr PageAddr) (*segment, *page, error) {
	if int64(addr) >= d.cfg.TotalPages() {
		return nil, nil, fmt.Errorf("%w: %d", ErrBadAddress, addr)
	}
	s := &d.segs[d.SegmentOf(addr)]
	if s.pages == nil {
		return s, &erasedPage, nil
	}
	return s, &s.pages[d.PageIndexOf(addr)], nil
}

// checkProg is check for write paths: it materializes the segment on first
// touch (lazy allocation keeps untouched segments free).
func (d *Device) checkProg(addr PageAddr) (*segment, *page, error) {
	if int64(addr) >= d.cfg.TotalPages() {
		return nil, nil, fmt.Errorf("%w: %d", ErrBadAddress, addr)
	}
	s := &d.segs[d.SegmentOf(addr)]
	d.materialize(s)
	return s, &s.pages[d.PageIndexOf(addr)], nil
}

// materialize gives a segment that has none its page array.
func (d *Device) materialize(s *segment) {
	if s.pages == nil {
		s.pages = make([]page, d.cfg.PagesPerSegment)
	}
}

// slot is payload for a program into page idx of a materialized segment.
// On a StoreData device whose store does not reach idx — there is none yet,
// or it is a loaded frame holding fewer pages — s first gets a zeroed slab
// of its own, and the payloads of its other programmed pages are copied
// across.
func (d *Device) slot(s *segment, idx int) []byte {
	if d.cfg.StoreData && idx*s.stride+d.cfg.SectorSize > len(s.data) {
		old := *s
		s.data, s.stride = make([]byte, d.cfg.PagesPerSegment*d.cfg.SectorSize), d.cfg.SectorSize
		for j := range s.pages {
			if j != idx && s.pages[j].state == pageProgrammed {
				copy(d.payload(s, j), d.payload(&old, j))
			}
		}
	}
	return d.payload(s, idx)
}

// payload is every path's way to a stored payload: page idx's window into
// its segment's store, exactly a sector long with its capacity ending
// there, so a write through it reaches no other page. It is nil where the
// segment has no store: on a fingerprint-mode device, or before the
// segment's first program.
func (d *Device) payload(s *segment, idx int) []byte {
	if s.data == nil {
		return nil
	}
	off := idx * s.stride
	return s.data[off : off+d.cfg.SectorSize : off+d.cfg.SectorSize]
}

func (d *Device) channelFor(addr PageAddr) *sim.Resource {
	return &d.channels[int(addr)%d.cfg.Channels]
}

// Fingerprint computes the 64-bit integrity fingerprint of a payload; it is
// what fingerprint-mode devices retain in lieu of data. Small payloads are
// hashed in full; large ones sample the head, middle, and tail plus the
// length, keeping the per-program cost flat so multi-gigabyte experiments
// are not dominated by hashing. Hashing is word-at-a-time: the fingerprint
// is charged on every page program, so it sits on the hot path of every
// simulated write and must stay a small fraction of per-page host cost.
func Fingerprint(b []byte) uint64 {
	const sampleThreshold = 512
	h := mix64(14695981039346656037, uint64(len(b)))
	if len(b) <= sampleThreshold {
		return hashWords(h, b)
	}
	// Three single-word probes. Small payloads (every sub-512B test config)
	// still hash in full; big pages trade collision strength for a flat
	// ~4-multiply cost, which is what keeps multi-gigabyte experiments from
	// being dominated by integrity hashing.
	mid := len(b) / 2
	h = mix64(h, binary.LittleEndian.Uint64(b))
	h = mix64(h, binary.LittleEndian.Uint64(b[mid:]))
	h = mix64(h, binary.LittleEndian.Uint64(b[len(b)-8:]))
	return h
}

func hashWords(h uint64, b []byte) uint64 {
	for len(b) >= 8 {
		h = mix64(h, binary.LittleEndian.Uint64(b))
		b = b[8:]
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		h = mix64(h, binary.LittleEndian.Uint64(tail[:])^uint64(len(b)))
	}
	return h
}

func mix64(h, x uint64) uint64 {
	// One multiply per word (FNV-style over 64-bit lanes) with a final
	// rotate-free avalanche left to the caller's last mix: this runs for
	// every programmed page, so each extra instruction here is paid
	// millions of times per experiment.
	h ^= x
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	return h
}

// ProgramPage is ProgramPages of the one page at addr.
func (d *Device) ProgramPage(now sim.Time, addr PageAddr, data, oob []byte) (sim.Time, error) {
	_, done, err := d.ProgramPages(now, []PageAddr{addr}, [][]byte{data}, [][]byte{oob})
	return done, err
}

// ReadPage is ReadPagesInto of the one page at addr.
func (d *Device) ReadPage(now sim.Time, addr PageAddr) (data, oob []byte, done sim.Time, err error) {
	var datas, oobs [][]byte
	if _, done, err = d.ReadPagesInto(now, []PageAddr{addr}, &datas, &oobs); err != nil {
		return nil, nil, done, err
	}
	return datas[0], oobs[0], done, nil
}

// corruptData consults the hook's DataCorrupter extension, if any. Callers
// gate on d.hook != nil; a hook without the extension injects nothing.
func (d *Device) corruptData(op Op, addr PageAddr, data []byte) []byte {
	if data == nil {
		return nil
	}
	if dc, ok := d.hook.(DataCorrupter); ok {
		if m := dc.CorruptData(op, addr, data); len(m) == len(data) {
			return m
		}
	}
	return data
}

// verifyPayload re-hashes a payload about to leave the device against the
// page's stored fingerprint — the ECC/CRC check that turns injected payload
// corruption into a detected error instead of silently wrong data. It runs
// only while a fault hook is armed: on a clean device stored bytes cannot
// diverge from the fingerprint, so the per-read hashing cost is not paid on
// the hot path of ordinary experiments.
func (d *Device) verifyPayload(addr PageAddr, p *page, data []byte) error {
	if data == nil || Fingerprint(data) == p.fingerprint() {
		return nil
	}
	return fmt.Errorf("%w: page %d", ErrCorruptData, addr)
}

// PageFingerprint returns the payload fingerprint of a programmed page
// without modelling any device time (it is a test/verification hook, not an
// I/O path).
func (d *Device) PageFingerprint(addr PageAddr) (uint64, error) {
	_, p, err := d.check(addr)
	if err != nil {
		return 0, err
	}
	if p.state != pageProgrammed {
		return 0, fmt.Errorf("%w: page %d", ErrReadErased, addr)
	}
	return p.fingerprint(), nil
}

// IsProgrammed reports whether the page at addr holds data.
func (d *Device) IsProgrammed(addr PageAddr) bool {
	_, p, err := d.check(addr)
	return err == nil && p.state == pageProgrammed
}

// ScanSegmentOOB performs a bulk header scan of one segment: it returns the
// OOB bytes of every programmed page (indexed by page-in-segment; erased
// pages yield nil) at a far lower cost than page reads. This is the
// operation snapshot activation and crash recovery are built on. The result
// reuses buf when buf has the capacity (a scan per segment of a device-wide
// sweep would otherwise allocate a segment's worth of slice headers each).
func (d *Device) ScanSegmentOOB(now sim.Time, seg int, buf [][]byte) (oobs [][]byte, done sim.Time, err error) {
	if seg < 0 || seg >= d.cfg.Segments {
		return nil, now, fmt.Errorf("%w: segment %d", ErrBadAddress, seg)
	}
	if d.hook != nil {
		if err := d.hook.BeforeOp(OpScanOOB, d.Addr(seg, 0)); err != nil {
			return nil, now, err
		}
	}
	s := &d.segs[seg]
	if cap(buf) >= d.cfg.PagesPerSegment {
		oobs = buf[:d.cfg.PagesPerSegment]
		clear(oobs)
	} else {
		oobs = make([][]byte, d.cfg.PagesPerSegment)
	}
	for i := range s.pages {
		if s.pages[i].state == pageProgrammed {
			oobs[i] = s.pages[i].oob[:]
		}
	}
	d.stats.OOBScans++
	cost := sim.Duration(int64(d.cfg.OOBScanPerPage) * int64(d.cfg.PagesPerSegment))
	if cost < sim.Duration(d.cfg.ReadLatency) {
		cost = d.cfg.ReadLatency // at least one page read's worth of setup
	}
	ch := &d.channels[seg%d.cfg.Channels]
	_, done = ch.Acquire(now, cost)
	return oobs, done, nil
}

// EraseSegment erases every page in segment seg.
func (d *Device) EraseSegment(now sim.Time, seg int) (sim.Time, error) {
	if seg < 0 || seg >= d.cfg.Segments {
		return now, fmt.Errorf("%w: segment %d", ErrBadAddress, seg)
	}
	if d.hook != nil {
		if err := d.hook.BeforeOp(OpErase, d.Addr(seg, 0)); err != nil {
			return now, err
		}
	}
	s := &d.segs[seg]
	if s.health == Retired {
		return now, fmt.Errorf("%w: erase of segment %d", ErrRetired, seg)
	}
	if d.cfg.EraseEndurance > 0 && s.erases >= d.cfg.EraseEndurance {
		return now, fmt.Errorf("%w: segment %d after %d erases", ErrWornOut, seg, s.erases)
	}
	if d.wearRNG != nil && s.erases >= d.cfg.WearOutThreshold &&
		d.wearRNG.Float64() < d.cfg.WearOutProb {
		// Aged cells failed to reach the erased state; the segment is intact
		// but unreliable. The caller decides whether to retry or retire.
		return now, fmt.Errorf("%w: segment %d wear-out after %d erases", ErrWornOut, seg, s.erases)
	}
	// Only the state byte needs resetting: oob, fingerprint and payload are
	// unreadable while erased and fully rewritten on the next program. The
	// payload store is kept, so StoreData configs reuse it across erase
	// cycles.
	for i := range s.pages {
		s.pages[i].state = pageErased
	}
	s.nextProg = 0
	s.erases++
	d.stats.Erases++

	ch := &d.channels[seg%d.cfg.Channels]
	_, done := ch.Acquire(now, d.cfg.EraseLatency)
	return done, nil
}

// SegmentHealth returns the health state of segment seg.
func (d *Device) SegmentHealth(seg int) Health {
	if seg < 0 || seg >= d.cfg.Segments {
		return Retired // out-of-range segments are unusable by definition
	}
	return d.segs[seg].health
}

// MarkSuspect flags segment seg as failing. It is a no-op on retired
// segments (retirement is terminal).
func (d *Device) MarkSuspect(seg int) {
	if seg < 0 || seg >= d.cfg.Segments || d.segs[seg].health == Retired {
		return
	}
	d.segs[seg].health = Suspect
}

// Retire marks segment seg as a grown bad block: programs and erases are
// refused from now on. Reads of pages it still holds continue to work.
// Retirement is terminal — there is no way back to Healthy.
func (d *Device) Retire(seg int) {
	if seg < 0 || seg >= d.cfg.Segments {
		return
	}
	d.segs[seg].health = Retired
}

// HealthCounts returns how many segments are currently suspect and retired.
func (d *Device) HealthCounts() (suspect, retired int) {
	for i := range d.segs {
		switch d.segs[i].health {
		case Suspect:
			suspect++
		case Retired:
			retired++
		}
	}
	return suspect, retired
}

// RetiredSegments lists the retired segment indices in ascending order.
func (d *Device) RetiredSegments() []int {
	var out []int
	for i := range d.segs {
		if d.segs[i].health == Retired {
			out = append(out, i)
		}
	}
	return out
}

// EraseCount returns how many times segment seg has been erased.
func (d *Device) EraseCount(seg int) int {
	if seg < 0 || seg >= d.cfg.Segments {
		return 0
	}
	return d.segs[seg].erases
}

// WearStats summarizes erase counts across segments: min, max, and total.
func (d *Device) WearStats() (minE, maxE, total int) {
	if len(d.segs) == 0 {
		return 0, 0, 0
	}
	minE = d.segs[0].erases
	for i := range d.segs {
		e := d.segs[i].erases
		if e < minE {
			minE = e
		}
		if e > maxE {
			maxE = e
		}
		total += e
	}
	return minE, maxE, total
}

// ProgrammedInSegment returns how many pages of segment seg hold data.
func (d *Device) ProgrammedInSegment(seg int) int {
	if seg < 0 || seg >= d.cfg.Segments {
		return 0
	}
	n := 0
	s := &d.segs[seg]
	for i := range s.pages {
		if s.pages[i].state == pageProgrammed {
			n++
		}
	}
	return n
}

// NextFreeInSegment returns the next in-order programmable page index of
// segment seg, or PagesPerSegment when the segment is full.
func (d *Device) NextFreeInSegment(seg int) int {
	if seg < 0 || seg >= d.cfg.Segments {
		return 0
	}
	return d.segs[seg].nextProg
}

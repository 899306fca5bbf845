// Package logcore is the log engine both FTLs are built on: the mechanics of
// the Fusion-io Virtual Storage Layer as the paper describes it (§5.2) — a
// Remap-on-Write log with a head and segment pools, the retrying media
// boundary, the flash-resident paged forward map, the batched data path,
// checkpoint transport, the recovery scan shell, and the clean lifecycle.
//
// It holds no opinion on what makes a block valid. internal/ftl (one flat
// bitmap, an in-RAM map, no checkpoint) and internal/iosnap (per-epoch
// copy-on-write bitmaps, snapshots) each embed a Log and keep only that
// policy: how validity is stored, which victim a clean takes and what it
// copies (a CleanPlan), what a checkpoint and a recovery carry beyond the map
// and the segment table.
// The core reaches the policy through the Policy interface — never per
// sector and never on the read path.
package logcore

import (
	"errors"
	"fmt"
	"slices"

	"iosnap/internal/mapcache"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// Errors returned by log operations (both FTLs re-export them).
var (
	ErrOutOfRange = errors.New("logcore: LBA out of range")
	ErrBadLength  = errors.New("logcore: buffer not a multiple of sector size")
	ErrClosed     = errors.New("logcore: device closed")
	ErrDeviceFull = errors.New("logcore: no reclaimable space")
	// ErrOutOfSpace is graceful degradation: the free pool fell to the rescue
	// reserve with nothing reclaimable, so new writes shed while reads, trims,
	// space-freeing notes and cleaning keep working. The condition clears by
	// itself once cleaning lifts the pool above the reserve.
	ErrOutOfSpace = errors.New("logcore: out of space (degraded: writes shed, reads still served)")
	// ErrFrozen is returned for writes and trims while the device is frozen.
	ErrFrozen = errors.New("logcore: device frozen")
)

// Config is what both FTLs configure above the raw NAND geometry.
type Config struct {
	Nand nand.Config

	// UserSectors is the advertised logical capacity. It must leave
	// over-provisioning headroom below the physical capacity or the cleaner
	// cannot make progress; DefaultConfig leaves 1/8 plus the reserve.
	UserSectors int64

	// ReserveSegments triggers background cleaning when the free-segment
	// pool drops to this level.
	ReserveSegments int

	// GCWindow is the interval over which the cleaner paces the copy-forward
	// of one victim segment; GCChunk is the pages it copies per quantum.
	GCWindow sim.Duration
	GCChunk  int

	// MapCachePages selects the forward map's memory layout (DESIGN.md
	// §13). 0 (the default) keeps the in-RAM B+tree. A positive value
	// switches to the flash-resident paged map: translation pages of
	// mapcache.SlotsFor(SectorSize) 4-byte slots each (64 at 512-byte
	// sectors, 512 at 4K; the device must have fewer than 2^32 − 1 pages),
	// a RAM-pinned global translation directory, and a CLOCK cache bounded
	// to that many resident translation pages. Dirty pages write back
	// through the log head on eviction, so the map's host footprint is
	// O(cache + GTD) instead of O(map), and the device must store data
	// (Nand.StoreData). The vanilla FTL refuses a positive value.
	MapCachePages int

	// RescueReserve is the number of free segments the write path must leave
	// untouched: headroom that keeps the cleaner and segment rescue able to
	// make progress even when users have filled the device. Writes that
	// would dip into the reserve (and cannot force-clean their way out) are
	// shed with ErrOutOfSpace. The floor is 1 (DataReserve): a value below
	// it keeps one segment.
	RescueReserve int

	// CheckpointInterval arms periodic background checkpointing: once at
	// least this much virtual time has passed since the last checkpoint, the
	// next head advance starts a paced checkpoint task. 0 disables the
	// periodic mode (Close still writes a synchronous checkpoint). Checkpoints
	// are only written when the NAND stores payloads (Nand.StoreData) —
	// without payloads one can never be read back. The vanilla FTL, whose
	// checkpoint carries nothing, refuses a positive value.
	CheckpointInterval sim.Duration
}

// Host CPU costs the engine charges in virtual time.
const (
	// mapCPUCost is one forward-map descent. A multi-sector request is
	// charged once per *leaf* its run spans in a maximally-packed tree
	// (ftlmap.RunSpan), not once per sector — the batched data path's cost
	// model (DESIGN.md §10).
	mapCPUCost = 300 * sim.Nanosecond

	// MergeCPUPerBlock is the cleaner's cost to determine one block's
	// validity. The vanilla FTL consults a single bitmap; the snapshot FTL
	// pays this per epoch merged (Table 4's "validity merge").
	MergeCPUPerBlock = 15 * sim.Nanosecond
)

// DefaultConfig returns a config over the given NAND geometry with the
// calibrated defaults used throughout the experiments.
func DefaultConfig(nc nand.Config) Config {
	reserve := nc.Segments / 16
	if reserve < 2 {
		reserve = 2
	}
	user := nc.TotalPages() * 7 / 8
	// Never advertise into the reserve segments.
	if maxUser := int64(nc.Segments-reserve-1) * int64(nc.PagesPerSegment); user > maxUser {
		user = maxUser
	}
	return Config{
		Nand:            nc,
		UserSectors:     user,
		ReserveSegments: reserve,
		GCWindow:        10 * sim.Second,
		GCChunk:         32,
		RescueReserve:   2,
	}
}

// DataReserve is the free-pool floor for ordinary appends. At least one
// segment must always stay free for the cleaner's copy destination.
func (c Config) DataReserve() int {
	if c.RescueReserve < 1 {
		return 1
	}
	return c.RescueReserve
}

// Validate checks configuration consistency.
func (c Config) Validate() error {
	if err := c.Nand.Validate(); err != nil {
		return err
	}
	if c.UserSectors <= 0 || c.UserSectors >= c.Nand.TotalPages() {
		return fmt.Errorf("logcore: UserSectors %d must be positive and leave over-provisioning (physical %d)",
			c.UserSectors, c.Nand.TotalPages())
	}
	if c.ReserveSegments < 1 || c.ReserveSegments >= c.Nand.Segments {
		return fmt.Errorf("logcore: ReserveSegments %d out of range", c.ReserveSegments)
	}
	if c.GCChunk <= 0 {
		return fmt.Errorf("logcore: GCChunk %d must be positive", c.GCChunk)
	}
	if c.RescueReserve < 0 || c.RescueReserve >= c.Nand.Segments {
		return fmt.Errorf("logcore: RescueReserve %d out of range", c.RescueReserve)
	}
	if c.CheckpointInterval < 0 {
		return fmt.Errorf("logcore: CheckpointInterval must not be negative")
	}
	if c.MapCachePages < 0 {
		return fmt.Errorf("logcore: MapCachePages %d must not be negative", c.MapCachePages)
	}
	if c.MapCachePages > 0 && !c.Nand.StoreData {
		return fmt.Errorf("logcore: MapCachePages %d requires a data-storing device (translation pages live on flash)", c.MapCachePages)
	}
	if c.MapCachePages > 0 && c.Nand.SectorSize < mapcache.MinSectorSize {
		return fmt.Errorf("logcore: MapCachePages %d: a translation page needs %d-byte sectors, not %d",
			c.MapCachePages, mapcache.MinSectorSize, c.Nand.SectorSize)
	}
	if c.MapCachePages != 0 && c.Nand.TotalPages() >= int64(mapcache.Unmapped) {
		return fmt.Errorf("logcore: paged map on %d pages: translation entries are 4-byte page addresses (fewer than %d pages)",
			c.Nand.TotalPages(), int64(mapcache.Unmapped))
	}
	return nil
}

// Stats are the counters both FTLs keep.
type Stats struct {
	UserReads    int64 // sectors read by the user (not calls)
	UserWrites   int64 // sectors written by the user (not calls)
	BytesRead    int64
	BytesWritten int64
	Trims        int64

	GCRuns      int64        // victim segments cleaned
	GCForced    int64        // cleans forced synchronously by writers
	GCCopied    int64        // pages copy-forwarded
	GCErases    int64        // segments erased by the cleaner
	GCErrors    int64        // background cleans aborted by device errors
	GCLastErr   string       // most recent aborting error ("" when none)
	GCMergeTime sim.Duration // host time spent computing block validity
	GCTotalTime sim.Duration // virtual time from victim selection to erase
	GCLastAt    sim.Time     // completion time of the most recent clean

	GCUnpacedQuanta int64 // cleaner quanta run unthrottled because the work estimate was exhausted

	MapMemory         int64 // forward map bytes, as if fully resident (refreshed by Stats())
	MapMemoryResident int64 // host RAM the map actually holds: resident pages + GTD (refreshed by Stats())
	MapCacheHits      int64 // translation pages served from the cache (paged mode)
	MapCacheMisses    int64 // translation pages faulted from flash (paged mode)
	MapCacheEvictions int64 // resident translation pages evicted (paged mode)
	MapPagesFlushed   int64 // dirty translation pages written back to the log (paged mode)
	WriteAmplify      float64

	Retries          int64 // NAND operations re-attempted by the retry policy
	MediaFailures    int64 // permanent media failures (each marks a segment suspect)
	SegmentsSuspect  int   // refreshed by Stats()
	SegmentsRetired  int   // refreshed by Stats()
	OutOfSpaceWrites int64 // writes shed with ErrOutOfSpace
	Degraded         bool  // write path currently shedding load, refreshed by Stats()

	TornPagesSkipped int64 // unparseable headers dropped during recovery and log scans

	// Batched data-path accounting.
	BatchDescents  int64 // leaf descents charged for run operations
	BatchPages     int64 // pages submitted through batch NAND entry points
	BatchNandCalls int64 // batch NAND calls issued (one per run chunk)

	Checkpoints       int64  // checkpoint generations committed (anchor updated)
	CheckpointChunks  int64  // chunk pages programmed by committed generations
	CheckpointErrors  int64  // checkpoint attempts aborted by errors
	CheckpointLastErr string // most recent aborting error ("" when none)

	RecoveryTailBounded bool  // this FTL came up via the checkpoint fast path
	RecoveryFallbacks   int64 // tail-bounded attempts that fell back to a full scan
	RecoverySegsScanned int64 // segments whose OOB headers recovery scanned
	RecoveryHeaderPages int64 // header pages recovery scanned
}

// Policy is what an FTL supplies to the log it embeds. No method is called
// per sector or from the read path; one call per programmed chunk
// (RunCommitted) is the finest grain.
type Policy interface {
	// PickVictim chooses the segment the next clean takes, or -1 when
	// nothing is reclaimable, and the merge CPU the choice cost (MaybeClean,
	// and the forced clean of a writer at the pool's floor).
	PickVictim() (seg int, cost sim.Duration)
	// PlanClean plans the clean of seg, which the engine has validated or
	// the policy picked (MaybeClean, ForceClean, the forced clean,
	// CleanSegment).
	PlanClean(seg int) CleanPlan
	// HeadAdvanced runs after a writer moved the head onto a fresh segment
	// (AppendRun): the policy schedules its own background work. The
	// background clean and the periodic checkpoint are the core's; the clean
	// is started before it and the checkpoint after.
	HeadAdvanced(now sim.Time)
	// SegmentTracked reports that seg entered the used list: fresh when it
	// was just taken, erased, from the free pool; not fresh when recovery
	// found it holding data (RebuildGeometry).
	SegmentTracked(seg int, fresh bool)
	// SegmentReleased reports that seg left the used list, erased back to
	// the pool or retired (a finished clean, retirement).
	SegmentReleased(seg int)
	// RunCommitted flips validity for one committed run of the data path
	// (WriteRun, once per programmed chunk; TrimActive, once): the
	// contiguous pages set, freshly programmed on behalf of epoch, become
	// valid and the translations the run displaced or dropped (cleared, in
	// map order, the policy's to reorder) become invalid. It returns the host
	// time the flips cost, charged once at the end of a write.
	RunCommitted(epoch uint64, set []nand.PageAddr, cleared []uint64) sim.Duration
	// SerializeCheckpoint captures the policy's whole recoverable state at
	// one instant as chunk jobs (StartCheckpoint, ckptTask, the close-time
	// write). The identity it returns doubles as the replay cut-off: Seq now.
	SerializeCheckpoint() (id uint64, jobs []ChunkJob, err error)
}

// Log is the engine state an FTL embeds. Not safe for concurrent use: the
// whole simulation is single-threaded virtual time. Exported fields are the
// policy's to read (and, for the recovery path, to fill); everything that
// changes them in service is a method here.
type Log struct {
	cfg    Config
	policy Policy
	stats  *Stats // the embedding FTL's counters; the policy's own sit beside them

	Dev   *nand.Device
	Sched *sim.Scheduler

	// ActiveMap is the device's own forward map (ioSnap's active view). It
	// is the map checkpoints serialize and translation-page pins refer to;
	// activated views bring their own to ReadRun/WriteRun.
	ActiveMap *mapcache.Map

	HeadSeg    int      // segment currently absorbing appends
	HeadIdx    int      // next page index within HeadSeg
	Seq        uint64   // global write sequence number
	FreeSegs   []int    // erased segments available for the log head
	UsedSegs   []int    // segments with data, oldest first (HeadSeg is last)
	SegLastSeq []uint64 // newest write sequence in each segment (checkpoint segment table)

	victims  victimHeap // victim.go
	GCVictim int        // segment a background clean currently owns (-1 = none)
	degraded bool       // out of space: writes shed until cleaning frees space
	closed   bool
	frozen   bool // writes and trims refused, dirty map pages not evicted (ioSnap's Freeze)

	// Checkpoint state. Chunk pages are valid in no bitmap — they are
	// consumed at recovery, not translated — so the pin set is what keeps the
	// cleaner from erasing the newest durable generation (and one in flight);
	// pinned pages are copy-forwarded like valid ones and the anchor follows
	// them. AnchorID/AnchorAddrs mirror the device anchor; CkptInflight is
	// the partial chunk list of a running background checkpoint task. Only
	// pinChunk/unpinChunk (and pinMapPage/unpinMapPage for MapPins) write
	// the pin sets, so the victim heap's per-segment counts follow them.
	ckptActive   bool
	lastCkpt     sim.Time
	CkptPins     map[nand.PageAddr]bool
	AnchorID     uint64
	AnchorAddrs  []nand.PageAddr
	CkptInflight []nand.PageAddr

	// MapPins maps each live GTD-referenced translation page to its
	// translation-page index. Like checkpoint chunks, translation pages are
	// valid in no bitmap, so the pin is their only cleaning protection; the
	// cleaner copies them forward and re-points the GTD.
	MapPins map[nand.PageAddr]uint64

	ws dataPathScratch
}

// Init wires an embedded Log to its device, its policy and the FTL's
// counters. A fresh device continues with Format, an existing one with the
// recovery scan and RebuildGeometry.
func (l *Log) Init(cfg Config, dev *nand.Device, sched *sim.Scheduler, p Policy, stats *Stats) {
	*l = Log{
		cfg:        cfg,
		policy:     p,
		stats:      stats,
		Dev:        dev,
		Sched:      sched,
		GCVictim:   -1,
		victims:    newVictimHeap(cfg.Nand.Segments),
		SegLastSeq: make([]uint64, cfg.Nand.Segments),
		CkptPins:   make(map[nand.PageAddr]bool),
		MapPins:    make(map[nand.PageAddr]uint64),
	}
}

// Format lays out an empty log: segment 0 is the head, the rest are free.
func (l *Log) Format() {
	l.ActiveMap = l.newActiveMap()
	for s := l.cfg.Nand.Segments - 1; s >= 1; s-- {
		l.FreeSegs = append(l.FreeSegs, s)
	}
	l.HeadSeg = 0
	l.UsedSegs = []int{0}
	l.track(0, true)
}

// Device exposes the underlying NAND (tests and experiments inspect it).
func (l *Log) Device() *nand.Device { return l.Dev }

// Scheduler returns the background-task scheduler this FTL enqueues on;
// callers drive it via Scheduler().RunUntil(now).
func (l *Log) Scheduler() *sim.Scheduler { return l.Sched }

// SectorSize implements blockdev.Device.
func (l *Log) SectorSize() int { return l.cfg.Nand.SectorSize }

// Sectors implements blockdev.Device.
func (l *Log) Sectors() int64 { return l.cfg.UserSectors }

// FreeSegments returns the size of the erased-segment pool.
func (l *Log) FreeSegments() int { return len(l.FreeSegs) }

// MappedSectors returns how many LBAs of the device's own map have a
// translation.
func (l *Log) MappedSectors() int { return l.ActiveMap.Len() }

// UsedSegments returns the segments currently holding data, oldest first
// (the log head is last).
func (l *Log) UsedSegments() []int { return append([]int(nil), l.UsedSegs...) }

// SegInUse reports whether seg is currently in the used list.
func (l *Log) SegInUse(seg int) bool { return slices.Contains(l.UsedSegs, seg) }

// Closed reports whether Close has run.
func (l *Log) Closed() bool { return l.closed }

// Frozen reports whether the write path is quiesced.
func (l *Log) Frozen() bool { return l.frozen }

// SetFrozen quiesces or resumes the write path.
func (l *Log) SetFrozen(frozen bool) { l.frozen = frozen }

// Stats returns a snapshot of the shared counters with the derived fields
// refreshed.
func (l *Log) Stats() Stats {
	s := *l.stats
	s.MapMemory = l.ActiveMap.MemoryBytes()
	s.MapMemoryResident = l.ActiveMap.ResidentBytes()
	if c := l.ActiveMap.Paged(); c != nil {
		cs := c.Stats()
		s.MapCacheHits = cs.Hits
		s.MapCacheMisses = cs.Misses
		s.MapCacheEvictions = cs.Evictions
		s.MapPagesFlushed = cs.Flushed
	}
	if s.UserWrites > 0 {
		s.WriteAmplify = float64(s.UserWrites+s.GCCopied) / float64(s.UserWrites)
	}
	s.SegmentsSuspect, s.SegmentsRetired = l.Dev.HealthCounts()
	s.Degraded = l.degraded
	return s
}

// CheckIO validates one request's range against the advertised capacity.
// n is compared against the room left above lba, never added to it: lba+n
// wraps for an lba near MaxInt64 and would pass.
func (l *Log) CheckIO(lba int64, n int) error {
	if l.closed {
		return ErrClosed
	}
	if n <= 0 {
		return fmt.Errorf("%w: %d-sector I/O", ErrBadLength, n)
	}
	if lba < 0 || int64(n) > l.cfg.UserSectors-lba {
		return fmt.Errorf("%w: %d sectors at LBA %d of %d", ErrOutOfRange, n, lba, l.cfg.UserSectors)
	}
	return nil
}

// Close writes a final synchronous checkpoint (when the device stores data,
// so the chunks can be read back) and marks the log closed. The log remains
// the source of truth: a failed or absent checkpoint only means the next
// recovery falls back to the full header scan, so the close proceeds either
// way (the failure is recorded in CheckpointErrors and the previous anchor,
// if any, stays intact). The returned time includes the NAND and bus time a
// partial attempt consumed.
//
// The log is marked closed before the checkpoint is written: its chunks
// advance the head, and a head advance must not queue cleaning, scrubbing or
// another checkpoint on a scheduler nobody will run again. A background
// clean still in flight is cancelled — its task finds the log closed —
// leaving the victim as consistent as after any aborted clean. So is a
// background checkpoint: the chunks it landed lose their pins and the
// synchronous checkpoint supersedes it.
func (l *Log) Close(now sim.Time) (sim.Time, error) {
	if l.closed {
		return now, ErrClosed
	}
	l.closed = true
	l.endClean()
	if l.ckptActive {
		for _, a := range l.CkptInflight {
			l.unpinChunk(a)
		}
		l.CkptInflight = nil
		l.ckptActive = false
	}
	if l.cfg.Nand.StoreData {
		now, _ = l.writeCheckpoint(now)
	}
	return now, nil
}

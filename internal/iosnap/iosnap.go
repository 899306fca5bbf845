// Package iosnap implements the paper's contribution: a snapshot-capable
// log-structured FTL ("ioSnap", EuroSys 2014). It embeds the log engine
// internal/ftl runs on (internal/logcore) and adds what the paper adds:
//
//   - epochs — a monotonically increasing counter stamped into every block
//     header, preserving log-time across segment-cleaner intermixing (§5.3.2);
//   - a snapshot tree recording how snapshots inherit from one another
//     through creates and activations (§5.3.2, Figure 4);
//   - per-epoch copy-on-write validity bitmaps, so unactivated snapshots
//     consume almost no memory and no reference counters bound the snapshot
//     count (§5.4.1);
//   - a snapshot-aware segment cleaner that merges per-epoch validity maps
//     and re-points every referencing epoch when it moves a block (§5.4.3);
//   - deferred, rate-limited snapshot activation that rebuilds a snapshot's
//     forward map from a log scan (§5.6);
//   - crash recovery that replays the log's notes and data pages to
//     reconstruct the snapshot tree, the active forward map, and per-epoch
//     validity maps (§5.5).
//
// Snapshot create and delete are a single log note (~tens of µs); all
// expensive work is deferred to the rare activation path — the paper's
// central design trade-off.
package iosnap

import (
	"errors"
	"fmt"

	"iosnap/internal/bitmap"
	"iosnap/internal/header"
	"iosnap/internal/logcore"
	"iosnap/internal/mapcache"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

// Errors returned by ioSnap operations. The log's own are the engine's.
var (
	ErrOutOfRange = logcore.ErrOutOfRange
	ErrBadLength  = logcore.ErrBadLength
	ErrClosed     = logcore.ErrClosed
	ErrDeviceFull = logcore.ErrDeviceFull
	ErrOutOfSpace = logcore.ErrOutOfSpace
	ErrFrozen     = logcore.ErrFrozen

	ErrNoSuchSnapshot  = errors.New("iosnap: no such snapshot")
	ErrSnapshotDeleted = errors.New("iosnap: snapshot deleted")
	ErrNotReady        = errors.New("iosnap: activation not finished")
	ErrViewClosed      = errors.New("iosnap: activated view deactivated")
	ErrReadOnlyView    = errors.New("iosnap: view is read-only")
)

// GCPolicy selects how the cleaner estimates its work for pacing.
type GCPolicy int

const (
	// GCVanillaEstimate paces from the *active* epoch's validity only — the
	// unmodified driver policy, which underestimates work when snapshotted
	// data must move and so bunches copy-forward (Figure 10b).
	GCVanillaEstimate GCPolicy = iota
	// GCSnapshotAware paces from the merged validity across all live epochs
	// (Figure 10c).
	GCSnapshotAware
)

func (p GCPolicy) String() string {
	if p == GCSnapshotAware {
		return "snapshot-aware"
	}
	return "vanilla-estimate"
}

// Config parameterizes the snapshot-capable FTL: the log engine's knobs
// plus the snapshot machinery's.
type Config struct {
	logcore.Config

	// GCPolicy selects the pacing estimate (Figure 10's ablation).
	GCPolicy GCPolicy

	// CoWPageCost is the host cost of copying one validity-bitmap page when
	// a write mutates a page frozen by a snapshot (Figure 7's spikes).
	CoWPageCost sim.Duration
	// BitmapPageBits is the CoW granularity of validity maps in bits
	// (default: one 4 KB page = 32768 blocks).
	BitmapPageBits int64

	// SelectiveScan enables the paper's §7 activation optimization: a full
	// activation or export scans only the segments where the snapshot's
	// epoch holds a valid bit, instead of the whole log.
	SelectiveScan bool

	// ScrubInterval arms the background scrubber: at most one scrub pass
	// per interval walks the used segments oldest-first, read-verifying
	// their headers and rescuing+retiring any suspect segment. Zero
	// disables scrubbing (the default; cleaning still retires suspects).
	ScrubInterval sim.Duration
	// ScrubLimit paces the scrubber's segment scans (work/sleep, like
	// activation rate-limiting) so foreground latency is preserved. The
	// zero value scrubs unthrottled.
	ScrubLimit ratelimit.WorkSleep
}

const (
	// reconstructCPUPerEntry is the host cost per translation when building
	// a forward map during activation or recovery.
	reconstructCPUPerEntry = 150 * sim.Nanosecond

	// activationBatch is how many segment scans an *unthrottled* activation
	// or export keeps in flight per quantum; larger batches saturate the
	// device and hurt foreground latency more (Figure 9a).
	activationBatch = 8
)

// DefaultConfig is the engine's defaults with the snapshot knobs added.
func DefaultConfig(nc nand.Config) Config {
	return Config{
		Config:         logcore.DefaultConfig(nc),
		GCPolicy:       GCSnapshotAware,
		CoWPageCost:    100 * sim.Microsecond,
		BitmapPageBits: bitmap.DefaultBitsPerPage,
	}
}

// Validate checks configuration consistency.
func (c Config) Validate() error {
	if err := c.Config.Validate(); err != nil {
		return err
	}
	if c.BitmapPageBits != 0 && (c.BitmapPageBits < 64 || c.BitmapPageBits%64 != 0) {
		return fmt.Errorf("iosnap: BitmapPageBits %d must be a positive multiple of 64", c.BitmapPageBits)
	}
	if c.ScrubInterval < 0 {
		return fmt.Errorf("iosnap: ScrubInterval must not be negative")
	}
	return nil
}

// Stats counts ioSnap activity: the log engine's counters plus the snapshot
// machinery's.
type Stats struct {
	logcore.Stats

	SnapshotCreates     int64
	SnapshotDeletes     int64
	SnapshotActivations int64
	CoWPageCopies       int64 // validity bitmap pages copied (Figure 7b)

	GCVictimSelects     int64 // victim-selection decisions taken
	GCCacheHits         int64 // decisions served entirely from fresh merge caches
	GCCacheRebuilds     int64 // per-segment merge caches rebuilt after an epoch-set change
	GCCacheRebuildPages int64 // pages passed over by those rebuilds

	RescuedPages int64 // blocks copied off suspect segments by rescue/scrub

	ScrubPasses   int64    // completed scrub passes over the log
	ScrubSegments int64    // segments read-verified by the scrubber
	ScrubRescues  int64    // suspect segments rescued+retired by the scrubber
	ScrubLastAt   sim.Time // completion time of the last scrub pass

	ExportChunks     int64 // chunks shipped by snapshot exports (after dedup)
	ExportDedupHits  int64 // chunks the receiver already held (listed, not shipped)
	ImportRetries    int64 // replication receive/verify attempts re-driven
	VerifyMismatches int64 // replica sectors that failed post-receive verification

	ValidityMemory int64 // CoW validity pages bytes (refreshed by Stats())
}

// view is one writable-or-readable mapping of the device: the active tree,
// or an activated snapshot.
type view struct {
	fmap     mapcache.Map
	epoch    bitmap.Epoch
	writable bool
	closed   bool
	// parent is the snapshot this view descends from (nil for the initial
	// active view of a fresh device).
	parent *Snapshot
}

// FTL is the snapshot-capable translation layer: the log engine plus
// epochs, the snapshot tree, CoW validity and the views. Not safe for
// concurrent use; the simulation is single-threaded over virtual time.
type FTL struct {
	logcore.Log
	cfg   Config
	stats Stats // the embedded Log counts into stats.Stats

	vstore *bitmap.Store
	tree   *Tree
	acct   *gcAcct // incremental merged-validity accounting (gcacct.go)

	active *view   // the primary block device; its map is Log.ActiveMap
	views  []*view // active + all live activated views

	epochCounter bitmap.Epoch

	scrubActive bool
	lastScrub   sim.Time // completion time of the last scrub pass

	scans []*scan // in-flight activations and exports (the cleaner keeps them consistent)

	holders []bitmap.Epoch // blockMoved's scratch: the live epochs holding the moved block
}

// newShell builds an FTL with its log wired to dev and nothing in it: New
// formats it, the recovery paths fill it in.
func newShell(cfg Config, dev *nand.Device, sched *sim.Scheduler) *FTL {
	f := &FTL{
		cfg:    cfg,
		vstore: bitmap.NewStore(cfg.Nand.TotalPages(), cfg.BitmapPageBits),
		tree:   NewTree(),
	}
	f.Log.Init(cfg.Config, dev, sched, f, &f.stats.Stats)
	f.acct = newGCAcct(f)
	return f
}

// New formats a fresh device. The scheduler is where the FTL queues its
// background work; nil gives it one of its own.
func New(cfg Config, sched *sim.Scheduler) (*FTL, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if sched == nil {
		sched = sim.NewScheduler()
	}
	f := newShell(cfg, nand.New(cfg.Nand), sched)
	f.epochCounter = 1
	if err := f.vstore.CreateEpoch(1, bitmap.NoParent); err != nil {
		return nil, err
	}
	f.Format()
	f.active = &view{fmap: f.ActiveMap, epoch: 1, writable: true}
	f.views = []*view{f.active}
	return f, nil
}

// Config returns the configuration.
func (f *FTL) Config() Config { return f.cfg }

// Tree returns the snapshot tree.
func (f *FTL) Tree() *Tree { return f.tree }

// ActiveEpoch returns the epoch currently absorbing primary writes.
func (f *FTL) ActiveEpoch() bitmap.Epoch { return f.active.epoch }

// ActiveMapMemory returns the active forward map's footprint in bytes.
func (f *FTL) ActiveMapMemory() int64 { return f.ActiveMap.MemoryBytes() }

// Stats returns a snapshot of the counters with derived fields refreshed.
func (f *FTL) Stats() Stats {
	s := f.stats
	s.Stats = f.Log.Stats()
	s.CoWPageCopies = f.vstore.CoWCopies()
	s.ValidityMemory = f.vstore.MemoryBytes()
	return s
}

// Write implements blockdev.Device on the active view. A mid-run device
// failure leaves the completed sectors committed and counted.
func (f *FTL) Write(now sim.Time, lba int64, data []byte) (sim.Time, error) {
	done, err := f.WriteActive(now, uint64(f.active.epoch), lba, data)
	if err != nil {
		err = f.whyFull(err)
	}
	return done, err
}

// whyFull adds the snapshot side to an out-of-space error: the live
// snapshots and views whose blocks the cleaner may not take.
func (f *FTL) whyFull(err error) error {
	if errors.Is(err, ErrOutOfSpace) {
		return fmt.Errorf("%w; %d live snapshots, %d views", err, f.tree.Live(), len(f.views)-1)
	}
	return err
}

// Trim drops active-view translations for the run. The pages remain live in
// any snapshot that captured them; only the active epoch's bits clear.
func (f *FTL) Trim(now sim.Time, lba int64, n int64) (sim.Time, error) {
	return f.TrimActive(now, uint64(f.active.epoch), lba, n)
}

// HeadAdvanced implements logcore.Policy: a writer moved the head onto a
// fresh segment, the moment the scrubber is armed.
func (f *FTL) HeadAdvanced(now sim.Time) { f.maybeScheduleScrub(now) }

// SegmentTracked implements logcore.Policy.
func (f *FTL) SegmentTracked(seg int, fresh bool) { f.acct.track(seg, fresh) }

// SegmentReleased implements logcore.Policy: an erased or retired segment
// holds no epoch's data any more.
func (f *FTL) SegmentReleased(seg int) { f.acct.untrack(seg) }

// writeNote appends a snapshot note (one metadata block, the paper's 4 KB
// per snapshot operation) and returns its address. Notes are marked valid
// in the active epoch so the cleaner preserves them for crash recovery. A
// note ages its segment like data (AppendRun sets SegLastSeq), so the
// checkpoint segment table agrees with what a scan of the segment reports.
func (f *FTL) writeNote(now sim.Time, typ header.Type, id SnapshotID, epoch bitmap.Epoch) (nand.PageAddr, sim.Time, error) {
	reserve := f.cfg.DataReserve()
	if typ == header.TypeSnapDelete || typ == header.TypeSnapDeactivate {
		// Space-FREEING notes dip below the rescue reserve: deleting a
		// snapshot is how a degraded device recovers, so it must not be
		// refused for the very space it is about to release.
		reserve = 1
	}
	addrs, _, at, done, err := f.AppendRun(now, reserve, 1, func(int) (header.Header, []byte) {
		return header.Header{Type: typ, LBA: uint64(id), Epoch: uint64(epoch)}, make([]byte, f.cfg.Nand.SectorSize)
	})
	switch {
	case len(addrs) == 0:
		return 0, at, f.whyFull(err)
	case err != nil:
		return 0, at, fmt.Errorf("iosnap: writing %v note: %w", typ, err)
	}
	addr := addrs[0]
	f.vstore.Set(f.active.epoch, int64(addr))
	f.acct.onViewSet(int64(addr))
	return addr, done, nil
}

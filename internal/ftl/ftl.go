// Package ftl implements the vanilla log-structured FTL the paper builds
// on: the Fusion-io Virtual Storage Layer as described in §5.2 — an in-RAM
// forward map, a validity bitmap, Remap-on-Write log appends and a greedy
// paced segment cleaner.
//
// The log itself is internal/logcore, the engine package iosnap embeds too,
// and so is the clean lifecycle; this package is the policy of a device with
// no snapshots at all — one flat bitmap says which blocks are valid, and the
// cleaner's plan re-tests it at copy time — and is the baseline ("Vanilla")
// column of the paper's Tables 2 and 4 and Figure 10. The paper evaluates
// recovery for ioSnap only (§5.5), so this FTL keeps no paged map, writes no
// checkpoint and has no recovery path.
package ftl

import (
	"fmt"

	"iosnap/internal/bitmap"
	"iosnap/internal/logcore"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// Errors returned by FTL operations: the log engine's.
var (
	ErrOutOfRange = logcore.ErrOutOfRange
	ErrBadLength  = logcore.ErrBadLength
	ErrClosed     = logcore.ErrClosed
	ErrDeviceFull = logcore.ErrDeviceFull
	ErrOutOfSpace = logcore.ErrOutOfSpace
)

// Config and Stats are the log engine's: the vanilla FTL adds no knob and
// no counter of its own.
type (
	Config = logcore.Config
	Stats  = logcore.Stats
)

// DefaultConfig returns a config over the given NAND geometry with the
// calibrated defaults used throughout the experiments.
func DefaultConfig(nc nand.Config) Config { return logcore.DefaultConfig(nc) }

// FTL is the vanilla log-structured translation layer: the log engine plus
// one validity bitmap. It is not safe for concurrent use (the whole
// simulation is single-threaded virtual time).
type FTL struct {
	logcore.Log
	cfg   Config
	stats Stats

	// validity is the one bitmap. The log's per-segment valid counts
	// (AddValid) mirror it exactly at all times — there is no epoch set to go
	// stale — so victim selection never walks it.
	validity *bitmap.Bitmap
}

// New formats a fresh device and returns an FTL over it. The scheduler is
// where the FTL queues its background cleaning; callers drive it via
// Scheduler().RunUntil(now) (the workload package does this automatically).
// The map stays in RAM and nothing is checkpointed, so a config that asks for
// a paged map or periodic checkpoints is refused.
func New(cfg Config, sched *sim.Scheduler) (*FTL, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.MapCachePages > 0 || cfg.CheckpointInterval > 0 {
		return nil, fmt.Errorf("ftl: the vanilla FTL has no paged map and no checkpoints (MapCachePages %d, CheckpointInterval %v)",
			cfg.MapCachePages, cfg.CheckpointInterval)
	}
	if sched == nil {
		sched = sim.NewScheduler()
	}
	f := &FTL{cfg: cfg, validity: bitmap.New(cfg.Nand.TotalPages())}
	f.Log.Init(cfg, nand.New(cfg.Nand), sched, f, &f.stats)
	f.Format()
	return f, nil
}

// Config returns the FTL configuration.
func (f *FTL) Config() Config { return f.cfg }

// Write implements blockdev.Device: the run is appended at the log head in
// per-segment chunks, old translations are invalidated, and the forward map
// absorbs the run — Remap-on-Write. Block headers carry epoch 0.
func (f *FTL) Write(now sim.Time, lba int64, data []byte) (sim.Time, error) {
	return f.WriteActive(now, 0, lba, data)
}

// Trim implements blockdev.Trimmer: it drops the run's translations and
// invalidates the backing pages, making them reclaimable.
func (f *FTL) Trim(now sim.Time, lba int64, n int64) (sim.Time, error) {
	return f.TrimActive(now, 0, lba, n)
}

// HeadAdvanced, SegmentTracked and SegmentReleased implement
// logcore.Policy: the vanilla FTL has no background work of its own and
// keeps nothing per segment beyond the log's valid count.
func (f *FTL) HeadAdvanced(sim.Time)    {}
func (f *FTL) SegmentTracked(int, bool) {}
func (f *FTL) SegmentReleased(int)      {}

// SerializeCheckpoint implements logcore.Policy: a vanilla checkpoint carries
// nothing, so one programs no chunk and pins no page.
func (f *FTL) SerializeCheckpoint() (uint64, [][]byte, error) { return f.Seq, nil, nil }

// markValid sets a validity bit and keeps the per-segment counts exact. All
// validity transitions must go through markValid/markInvalid (or their run
// forms in datapath.go).
func (f *FTL) markValid(p int64) {
	if f.validity.Test(p) {
		return
	}
	f.validity.Set(p)
	f.AddValid(f.Dev.SegmentOf(nand.PageAddr(p)), 1)
}

// markInvalid clears a validity bit and keeps the per-segment counters exact.
func (f *FTL) markInvalid(p int64) {
	if !f.validity.Test(p) {
		return
	}
	f.validity.Clear(p)
	f.AddValid(f.Dev.SegmentOf(nand.PageAddr(p)), -1)
}

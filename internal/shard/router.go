package shard

import (
	"errors"
	"fmt"

	"iosnap/internal/iosnap"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

// ErrClosed is returned once the router (or service) has been closed.
var ErrClosed = errors.New("shard: closed")

// RouterStats counts front-end-level events; per-shard FTL statistics live
// in each shard's own iosnap.Stats.
type RouterStats struct {
	Ops         int64        // user operations accepted (read/write/trim)
	SplitOps    int64        // operations that crossed a shard boundary
	Pieces      int64        // shard-local pieces issued
	Barriers    int64        // snapshot-create barriers executed
	BarrierWait sim.Duration // virtual time spent waiting for shards to quiesce
	BusWait     sim.Duration // virtual time serialized on the shared interconnect
}

// Router is the deterministic virtual-time execution mode of the sharded
// front-end: a single caller drives it exactly like an unsharded
// iosnap.FTL (explicit `now`, explicit RunUntil), and per-shard overlap is
// modeled by the shards' independent NAND resources. With cfg.Shards==1
// every operation is a pure pass-through to the one shard, making the
// router bit-exact against the unsharded FTL.
type Router struct {
	cfg    Config
	shards []*iosnap.FTL
	gov    *Governor

	// Optional shared host interconnect. busNsPerByte converts payload
	// bytes to occupancy; zero bandwidth leaves the pointer nil.
	rbus, wbus         *sim.Resource
	rNsPerMB, wNsPerMB int64

	stats   RouterStats
	scratch []extent
	closed  bool
}

// NewRouter builds the shards. Each shard gets its own device slice,
// scheduler, and FTL; cross-shard couplings (GC governor, interconnect)
// are installed only when configured.
func NewRouter(cfg Config) (*Router, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := &Router{cfg: cfg}
	var gate iosnap.GCGate
	if cfg.GCConcurrency > 0 {
		r.gov = NewGovernor(cfg.GCConcurrency)
		gate = r.gov
	}
	for i := 0; i < cfg.Shards; i++ {
		f, err := iosnap.New(cfg.shardConfig(i, gate), nil)
		if err != nil {
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		r.shards = append(r.shards, f)
	}
	if cfg.Shards > 1 {
		if cfg.InterconnectReadMBps > 0 {
			r.rbus = &sim.Resource{}
			r.rNsPerMB = int64(sim.Second) / int64(cfg.InterconnectReadMBps)
		}
		if cfg.InterconnectWriteMBps > 0 {
			r.wbus = &sim.Resource{}
			r.wNsPerMB = int64(sim.Second) / int64(cfg.InterconnectWriteMBps)
		}
	}
	return r, nil
}

// Shards returns the number of shards.
func (r *Router) Shards() int { return len(r.shards) }

// Shard exposes shard i's FTL for tests and diagnostics.
func (r *Router) Shard(i int) *iosnap.FTL { return r.shards[i] }

// Governor returns the global GC governor, or nil when GCConcurrency is 0.
func (r *Router) Governor() *Governor { return r.gov }

// SectorSize returns the logical sector size.
func (r *Router) SectorSize() int { return r.cfg.Base.Nand.SectorSize }

// Sectors returns the advertised capacity of the whole logical device.
func (r *Router) Sectors() int64 { return r.cfg.Base.UserSectors }

// Stats returns the front-end counters.
func (r *Router) Stats() RouterStats { return r.stats }

// ShardStats returns each shard's FTL statistics.
func (r *Router) ShardStats() []iosnap.Stats {
	out := make([]iosnap.Stats, len(r.shards))
	for i, f := range r.shards {
		out[i] = f.Stats()
	}
	return out
}

// RunUntil advances every shard's scheduler to now (background GC,
// checkpoints, scrub).
func (r *Router) RunUntil(now sim.Time) {
	for _, f := range r.shards {
		f.Scheduler().RunUntil(now)
	}
}

// Drain runs every shard's scheduler dry and returns the latest finish.
func (r *Router) Drain(now sim.Time) sim.Time {
	done := now
	for _, f := range r.shards {
		if d := f.Scheduler().Drain(now); d > done {
			done = d
		}
	}
	return done
}

// CheckInvariants runs every shard's invariant sweep.
func (r *Router) CheckInvariants() error {
	var errs []error
	for i, f := range r.shards {
		if err := f.CheckInvariants(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// busCharge serializes nbytes over the shared interconnect resource and
// returns when the transfer completes. now is the earliest start.
func (r *Router) busCharge(bus *sim.Resource, nsPerMB int64, now sim.Time, nbytes int) sim.Time {
	cost := sim.Duration(int64(nbytes) * nsPerMB / (1 << 20))
	start, done := bus.Acquire(now, cost)
	r.stats.BusWait += start.Sub(now)
	return done
}

func (r *Router) checkIO(lba int64, n int64) error {
	if r.closed {
		return ErrClosed
	}
	return r.cfg.checkIO(lba, n)
}

// Write stores data (a whole number of sectors) at lba. The payload first
// serializes over the shared write interconnect (when modeled), then the
// shard-local pieces are all issued at the same instant; overlap between
// shards falls out of their independent channel/bus accounting. On a piece
// failure the remaining pieces are not issued (ascending-LBA order, like
// the unsharded partial-run contract) and the error surfaces with the
// virtual time actually consumed.
func (r *Router) Write(now sim.Time, lba int64, data []byte) (sim.Time, error) {
	ss := r.SectorSize()
	if len(data) == 0 || len(data)%ss != 0 {
		return now, fmt.Errorf("shard: write size %d not sector aligned", len(data))
	}
	n := int64(len(data) / ss)
	if err := r.checkIO(lba, n); err != nil {
		return now, err
	}
	if len(r.shards) == 1 {
		return r.shards[0].Write(now, lba, data)
	}
	if r.wbus != nil {
		now = r.busCharge(r.wbus, r.wNsPerMB, now, len(data))
	}
	r.scratch = r.cfg.extents(lba, n, r.scratch)
	r.stats.Ops++
	r.stats.Pieces += int64(len(r.scratch))
	if len(r.scratch) > 1 {
		r.stats.SplitOps++
	}
	done := now
	for _, e := range r.scratch {
		d, err := r.shards[e.shard].Write(now, e.lba, data[e.off*int64(ss):(e.off+e.n)*int64(ss)])
		if d > done {
			done = d
		}
		if err != nil {
			return done, fmt.Errorf("shard %d: %w", e.shard, err)
		}
	}
	return done, nil
}

// Read fills buf (a whole number of sectors) from lba. Pieces issue at the
// same instant; the assembled payload then serializes over the shared read
// interconnect (when modeled).
func (r *Router) Read(now sim.Time, lba int64, buf []byte) (sim.Time, error) {
	ss := r.SectorSize()
	if len(buf) == 0 || len(buf)%ss != 0 {
		return now, fmt.Errorf("shard: read size %d not sector aligned", len(buf))
	}
	n := int64(len(buf) / ss)
	if err := r.checkIO(lba, n); err != nil {
		return now, err
	}
	if len(r.shards) == 1 {
		return r.shards[0].Read(now, lba, buf)
	}
	r.scratch = r.cfg.extents(lba, n, r.scratch)
	r.stats.Ops++
	r.stats.Pieces += int64(len(r.scratch))
	if len(r.scratch) > 1 {
		r.stats.SplitOps++
	}
	done := now
	for _, e := range r.scratch {
		d, err := r.shards[e.shard].Read(now, e.lba, buf[e.off*int64(ss):(e.off+e.n)*int64(ss)])
		if d > done {
			done = d
		}
		if err != nil {
			return done, fmt.Errorf("shard %d: %w", e.shard, err)
		}
	}
	if r.rbus != nil {
		done = r.busCharge(r.rbus, r.rNsPerMB, done, len(buf))
	}
	return done, nil
}

// Trim invalidates [lba, lba+n).
func (r *Router) Trim(now sim.Time, lba int64, n int64) (sim.Time, error) {
	if err := r.checkIO(lba, n); err != nil {
		return now, err
	}
	if len(r.shards) == 1 {
		return r.shards[0].Trim(now, lba, n)
	}
	r.scratch = r.cfg.extents(lba, n, r.scratch)
	r.stats.Ops++
	r.stats.Pieces += int64(len(r.scratch))
	if len(r.scratch) > 1 {
		r.stats.SplitOps++
	}
	done := now
	for _, e := range r.scratch {
		d, err := r.shards[e.shard].Trim(now, e.lba, e.n)
		if d > done {
			done = d
		}
		if err != nil {
			return done, fmt.Errorf("shard %d: %w", e.shard, err)
		}
	}
	return done, nil
}

// barrierTime computes the consistent freeze instant: no shard may still
// have NAND work in flight from before the snapshot, so the barrier waits
// for the busiest shard device to quiesce.
func (r *Router) barrierTime(now sim.Time) sim.Time {
	t := now
	for _, f := range r.shards {
		if b := f.Device().BusyUntil(); b > t {
			t = b
		}
	}
	return t
}

// CreateSnapshot captures one consistent point-in-time image across every
// shard. Multi-shard creates are a barrier: all shards quiesce to the same
// instant, then each logs its create note at that instant; because creates
// are the only ID-allocating operation and they always run on every shard,
// the per-shard IDs must agree — a mismatch is an invariant violation. A
// partial failure rolls back the shards that succeeded. With one shard
// this is a plain pass-through (no barrier), preserving bit-exactness.
func (r *Router) CreateSnapshot(now sim.Time) (iosnap.SnapshotID, sim.Time, error) {
	if r.closed {
		return 0, now, ErrClosed
	}
	if len(r.shards) == 1 {
		s, done, err := r.shards[0].CreateSnapshot(now)
		if err != nil {
			return 0, done, err
		}
		return s.ID, done, nil
	}
	tbar := r.barrierTime(now)
	r.stats.Barriers++
	r.stats.BarrierWait += tbar.Sub(now)
	var id iosnap.SnapshotID
	done := tbar
	created := 0
	for i, f := range r.shards {
		s, d, err := f.CreateSnapshot(tbar)
		if d > done {
			done = d
		}
		if err != nil {
			// Roll the completed shards back so no shard advertises a
			// snapshot that does not exist device-wide.
			for j := 0; j < created; j++ {
				if d2, derr := r.shards[j].DeleteSnapshot(done, id); derr == nil && d2 > done {
					done = d2
				}
			}
			return 0, done, fmt.Errorf("shard %d: snapshot create: %w", i, err)
		}
		if i == 0 {
			id = s.ID
		} else if s.ID != id {
			return 0, done, fmt.Errorf("shard %d: snapshot ID %d diverges from shard 0's %d", i, s.ID, id)
		}
		created++
	}
	return id, done, nil
}

// DeleteSnapshot tombstones id on every shard.
func (r *Router) DeleteSnapshot(now sim.Time, id iosnap.SnapshotID) (sim.Time, error) {
	if r.closed {
		return now, ErrClosed
	}
	if len(r.shards) == 1 {
		return r.shards[0].DeleteSnapshot(now, id)
	}
	done := now
	var errs []error
	for i, f := range r.shards {
		d, err := f.DeleteSnapshot(now, id)
		if d > done {
			done = d
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return done, errors.Join(errs...)
}

// SnapshotIDs lists the live snapshot IDs (identical on every shard, so
// shard 0 answers for the device).
func (r *Router) SnapshotIDs() []iosnap.SnapshotID {
	var out []iosnap.SnapshotID
	for _, s := range r.shards[0].Snapshots() {
		if !s.Deleted {
			out = append(out, s.ID)
		}
	}
	return out
}

// RouterView is a snapshot of the whole logical device activated across
// every shard.
type RouterView struct {
	r     *Router
	views []*iosnap.View
}

// ActivateSync activates snapshot id on every shard and composes the
// per-shard views into one logical view. A partial failure deactivates the
// views already built.
func (r *Router) ActivateSync(now sim.Time, id iosnap.SnapshotID, limit ratelimit.WorkSleep, writable bool) (*RouterView, sim.Time, error) {
	if r.closed {
		return nil, now, ErrClosed
	}
	views := make([]*iosnap.View, 0, len(r.shards))
	done := now
	for i, f := range r.shards {
		v, d, err := f.ActivateSync(now, id, limit, writable)
		if d > done {
			done = d
		}
		if err != nil {
			for _, pv := range views {
				if d2, derr := pv.Deactivate(done); derr == nil && d2 > done {
					done = d2
				}
			}
			return nil, done, fmt.Errorf("shard %d: activate %d: %w", i, id, err)
		}
		views = append(views, v)
	}
	return &RouterView{r: r, views: views}, done, nil
}

// Read fills buf from the snapshot image.
func (v *RouterView) Read(now sim.Time, lba int64, buf []byte) (sim.Time, error) {
	ss := v.r.SectorSize()
	n := int64(len(buf) / ss)
	if len(v.views) == 1 {
		return v.views[0].Read(now, lba, buf)
	}
	exts := v.r.cfg.extents(lba, n, nil)
	done := now
	for _, e := range exts {
		d, err := v.views[e.shard].Read(now, e.lba, buf[e.off*int64(ss):(e.off+e.n)*int64(ss)])
		if d > done {
			done = d
		}
		if err != nil {
			return done, fmt.Errorf("shard %d: %w", e.shard, err)
		}
	}
	return done, nil
}

// Write stores data into a writable activation.
func (v *RouterView) Write(now sim.Time, lba int64, data []byte) (sim.Time, error) {
	ss := v.r.SectorSize()
	n := int64(len(data) / ss)
	if len(v.views) == 1 {
		return v.views[0].Write(now, lba, data)
	}
	exts := v.r.cfg.extents(lba, n, nil)
	done := now
	for _, e := range exts {
		d, err := v.views[e.shard].Write(now, e.lba, data[e.off*int64(ss):(e.off+e.n)*int64(ss)])
		if d > done {
			done = d
		}
		if err != nil {
			return done, fmt.Errorf("shard %d: %w", e.shard, err)
		}
	}
	return done, nil
}

// Deactivate releases the activation on every shard.
func (v *RouterView) Deactivate(now sim.Time) (sim.Time, error) {
	done := now
	var errs []error
	for i, pv := range v.views {
		d, err := pv.Deactivate(now)
		if d > done {
			done = d
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return done, errors.Join(errs...)
}

// Close checkpoints and closes every shard (each shard's Close never fails
// on checkpoint errors — it records them and closes anyway) and returns
// the latest finish.
func (r *Router) Close(now sim.Time) (sim.Time, error) {
	if r.closed {
		return now, ErrClosed
	}
	done := now
	var errs []error
	for i, f := range r.shards {
		d, err := f.Close(now)
		if d > done {
			done = d
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	r.closed = true
	return done, errors.Join(errs...)
}

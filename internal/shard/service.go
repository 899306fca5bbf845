package shard

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"iosnap/internal/iosnap"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

// ErrClosed is returned once the service has been closed.
var ErrClosed = errors.New("shard: closed")

// Service is the sharded front-end. It starts no goroutines for data ops: an operation runs to completion on
// its caller's goroutine, under the mutex of the shard it touches, so only
// requests to the same shard serialize.
//
// Synchronization model. A shard's FTL, scheduler and virtual clock are
// touched only with that shard's mutex held. An operation that touches
// several shards (a run straddling shard boundaries) locks all of them, in
// ascending index order, before it executes its first piece; the barrier
// operations (snapshot create, stats, invariant sweep, close) lock every
// shard in the same order. So a barrier never observes half of a
// multi-shard write, and no two lock holders can wait on each other.
// Activation, deactivation and snapshot delete touch every shard but need
// no atomicity with the barrier: they fan out one goroutine per shard, each
// under its own shard's lock, so the shards' scans overlap instead of
// running back to back on the caller. Close fans out the same way under
// the barrier it holds, and building a service creates or recovers each
// shard on a goroutine of its own.
//
// Virtual time. Each shard keeps its own clock vnow: ops execute at vnow,
// which then advances to the op's completion. The clocks decouple — that
// is the point of sharding (an op on shard 3 does not wait for shard 5's
// clock) — and re-synchronize only at snapshot barriers, which advance
// every clock to the common freeze instant.
type Service struct {
	cfg    Config
	shards []serviceShard
	// closed is written with every shard locked and read with at least one
	// locked.
	closed bool
}

// serviceShard is one shard's state, guarded by mu.
type serviceShard struct {
	mu   sync.Mutex
	f    *iosnap.FTL
	vnow sim.Time
	// lockWait is the wall time callers waited for mu, recorded under it.
	// Its 4 KiB of buckets also keep neighbours' locks off one cache line.
	lockWait sim.LatencyRecorder
}

// clockBase anchors the lock-wait clock: time.Since of a Time that carries
// a monotonic reading reads the monotonic clock alone, where time.Now would
// read the wall clock too.
var clockBase = time.Now()

// lock takes the shard's mutex and records how long the caller waited for
// it, with no allocation: a free mutex is taken at once and its wait is
// zero, and only a caller that has to wait reads the monotonic clock, twice.
func (sh *serviceShard) lock() {
	if sh.mu.TryLock() {
		sh.lockWait.Record(0, 0)
		return
	}
	asked := time.Since(clockBase)
	sh.mu.Lock()
	sh.lockWait.Record(0, sim.Duration(time.Since(clockBase)-asked))
}

// LockWait summarizes one shard's mutex waits since the service started:
// log-linear bucket upper bounds for the percentiles, capped at the exact
// maximum.
type LockWait struct {
	N             int64
	P50, P99, Max time.Duration
}

// NewService builds fresh shards.
func NewService(cfg Config) (*Service, error) {
	return newService(cfg, nil)
}

// NewServiceFrom recovers one FTL per already-loaded device and serves
// them as shards: devs[i] becomes shard i, crash-recovered under shard i's
// derived configuration. This is the storage server's mount path — the
// daemon loads each shard's image, recovers here, serves traffic, and
// saves the same devices back out at shutdown. Each shard's virtual clock
// starts at its recovery completion time.
func NewServiceFrom(cfg Config, devs []*nand.Device) (*Service, error) {
	if len(devs) != cfg.Shards {
		return nil, fmt.Errorf("shard: %d devices for %d shards", len(devs), cfg.Shards)
	}
	return newService(cfg, devs)
}

func newService(cfg Config, devs []*nand.Device) (*Service, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Service{cfg: cfg, shards: make([]serviceShard, cfg.Shards)}
	for _, err := range s.eachShard(func(i int, sh *serviceShard) (err error) {
		sh.lockWait = *sim.NewLatencyRecorder(0)
		sc := cfg.shardConfig(i)
		if devs == nil {
			sh.f, err = iosnap.New(sc, nil)
		} else {
			sh.f, sh.vnow, err = iosnap.Recover(sc, devs[i], nil, 0)
		}
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		return nil
	}) {
		if err != nil {
			return nil, err
		}
	}
	return s, nil
}

// eachShard runs fn once per shard, each on its own goroutine, and returns
// their errors in shard order. fn takes whatever lock it needs.
func (s *Service) eachShard(fn func(i int, sh *serviceShard) error) []error {
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i := range s.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = fn(i, &s.shards[i])
		}(i)
	}
	wg.Wait()
	return errs
}

// ConfigForDevices derives the service configuration whose per-shard split
// reproduces exactly the geometry of the given (identically-configured)
// devices — the inverse of shardConfig, used when mounting existing
// per-shard images: devs[i] holds the i-th contiguous slice of the LBA
// space.
func ConfigForDevices(devs []*nand.Device) (Config, error) {
	if len(devs) == 0 {
		return Config{}, fmt.Errorf("shard: no devices")
	}
	nc := devs[0].Config()
	for i, d := range devs {
		if d.Config() != nc {
			return Config{}, fmt.Errorf("shard: device %d geometry differs from device 0", i)
		}
	}
	n := len(devs)
	per := iosnap.DefaultConfig(nc)
	base := per
	base.Nand.Segments = nc.Segments * n
	base.Nand.Channels = nc.Channels * n
	base.UserSectors = per.UserSectors * int64(n)
	base.ReserveSegments = per.ReserveSegments * n
	base.RescueReserve = per.RescueReserve * n
	return Config{Base: base, Shards: n}, nil
}

// lockRange locks shards first through last in ascending index order, which
// is the one lock order; unlockRange releases them.
func (s *Service) lockRange(first, last int) {
	for i := first; i <= last; i++ {
		s.shards[i].lock()
	}
}

func (s *Service) unlockRange(first, last int) {
	for i := first; i <= last; i++ {
		s.shards[i].mu.Unlock()
	}
}

// barrier locks every shard: a quiescent point, held until release.
func (s *Service) barrier() { s.lockRange(0, len(s.shards)-1) }
func (s *Service) release() { s.unlockRange(0, len(s.shards)-1) }

// LiveSnapshots returns the number of live snapshots at a quiescent point.
func (s *Service) LiveSnapshots() int { return s.Summary().LiveSnapshots }

// MappedSectors sums the mapped-sector counts across shards at a quiescent
// point.
func (s *Service) MappedSectors() int64 { return s.Summary().MappedSectors }

// Shards returns the number of shards.
func (s *Service) Shards() int { return len(s.shards) }

// SectorSize returns the logical sector size.
func (s *Service) SectorSize() int { return s.cfg.Base.Nand.SectorSize }

// Sectors returns the advertised capacity of the whole logical device.
func (s *Service) Sectors() int64 { return s.cfg.Base.UserSectors }

// advance moves the shard's clock to an op's completion time.
func (sh *serviceShard) advance(done sim.Time) {
	if done > sh.vnow {
		sh.vnow = done
	}
}

type ioKind uint8

const (
	ioRead ioKind = iota
	ioWrite
	ioTrim
)

// io runs one data op: split into extents, lock the touched shards, run
// every piece at its shard's clock, unlock. views, when non-nil, redirects
// a read to an activated snapshot. The first piece error is returned; the
// remaining pieces still execute. A single-extent op allocates nothing.
func (s *Service) io(kind ioKind, views []*iosnap.View, lba, n int64, data []byte) error {
	if err := s.cfg.checkIO(lba, n); err != nil {
		return err
	}
	var arr [4]extent
	exts := s.cfg.extents(lba, n, arr[:0])
	first, last := exts[0].shard, exts[len(exts)-1].shard
	s.lockRange(first, last)
	defer s.unlockRange(first, last)
	if s.closed {
		return ErrClosed
	}
	ss := int64(s.SectorSize())
	var firstErr error
	for _, e := range exts {
		sh := &s.shards[e.shard]
		sh.f.Scheduler().RunUntil(sh.vnow)
		var piece []byte
		if kind != ioTrim {
			piece = data[e.off*ss : (e.off+e.n)*ss]
		}
		var done sim.Time
		var err error
		switch {
		case kind == ioTrim:
			done, err = sh.f.Trim(sh.vnow, e.lba, e.n)
		case kind == ioWrite:
			done, err = sh.f.Write(sh.vnow, e.lba, piece)
		case views != nil:
			done, err = views[e.shard].Read(sh.vnow, e.lba, piece)
		default:
			done, err = sh.f.Read(sh.vnow, e.lba, piece)
		}
		sh.advance(done)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// sectorsOf validates a payload length and converts it to sectors.
func (s *Service) sectorsOf(what string, size int) (int64, error) {
	ss := s.SectorSize()
	if size == 0 || size%ss != 0 {
		return 0, fmt.Errorf("shard: %s size %d not sector aligned", what, size)
	}
	return int64(size / ss), nil
}

// Write stores data at lba.
func (s *Service) Write(lba int64, data []byte) error {
	n, err := s.sectorsOf("write", len(data))
	if err != nil {
		return err
	}
	return s.io(ioWrite, nil, lba, n, data)
}

// Read fills buf from lba.
func (s *Service) Read(lba int64, buf []byte) error {
	n, err := s.sectorsOf("read", len(buf))
	if err != nil {
		return err
	}
	return s.io(ioRead, nil, lba, n, buf)
}

// Trim invalidates [lba, lba+n).
func (s *Service) Trim(lba, n int64) error {
	return s.io(ioTrim, nil, lba, n, nil)
}

// CreateSnapshot is the barrier: with every shard locked (so
// no op is half-executed — see the synchronization model above) it
// computes the consistent freeze instant across all shard clocks and
// devices, and logs the create note on every shard at that instant. All
// shard clocks advance to the barrier, re-synchronizing them.
func (s *Service) CreateSnapshot() (iosnap.SnapshotID, error) {
	s.barrier()
	defer s.release()
	if s.closed {
		return 0, ErrClosed
	}
	tbar := sim.Time(0)
	for i := range s.shards {
		sh := &s.shards[i]
		tbar = max(tbar, sh.vnow, sh.f.Device().BusyUntil())
	}
	var id iosnap.SnapshotID
	for i := range s.shards {
		sh := &s.shards[i]
		sh.f.Scheduler().RunUntil(tbar)
		snap, done, err := sh.f.CreateSnapshot(tbar)
		sh.vnow = max(done, tbar)
		if err != nil {
			for j := range s.shards[:i] {
				prev := &s.shards[j]
				if d, derr := prev.f.DeleteSnapshot(prev.vnow, id); derr == nil {
					prev.advance(d)
				}
			}
			return 0, fmt.Errorf("shard %d: snapshot create: %w", i, err)
		}
		if i == 0 {
			id = snap.ID
		} else if snap.ID != id {
			return 0, fmt.Errorf("shard %d: snapshot ID %d diverges from shard 0's %d", i, snap.ID, id)
		}
	}
	return id, nil
}

// fanOut runs op once per shard, each on its own goroutine under its own
// shard's lock, and returns the lowest-numbered shard's error. The shards'
// work overlaps; nothing orders it against a barrier as a whole.
func (s *Service) fanOut(op func(i int, f *iosnap.FTL, now sim.Time) (sim.Time, error)) error {
	errs := s.eachShard(func(i int, sh *serviceShard) error {
		sh.lock()
		defer sh.mu.Unlock()
		if s.closed {
			return ErrClosed
		}
		sh.f.Scheduler().RunUntil(sh.vnow)
		done, err := op(i, sh.f, sh.vnow)
		sh.advance(done)
		return err
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// DeleteSnapshot tombstones id on every shard (no barrier needed: deletes
// allocate nothing and commute with data ops).
func (s *Service) DeleteSnapshot(id iosnap.SnapshotID) error {
	return s.fanOut(func(_ int, f *iosnap.FTL, now sim.Time) (sim.Time, error) {
		return f.DeleteSnapshot(now, id)
	})
}

// ServiceView is an activated snapshot spanning every shard; its I/O takes
// the same shard locks as live I/O.
type ServiceView struct {
	s     *Service
	views []*iosnap.View
}

// ActivateSync activates snapshot id on every shard, the per-shard scans
// running side by side (each serializing with its own shard's live I/O); a
// partial failure deactivates what was built.
func (s *Service) ActivateSync(id iosnap.SnapshotID, writable bool) (*ServiceView, error) {
	return s.activate(func(_ int, f *iosnap.FTL, now sim.Time) (*iosnap.View, sim.Time, error) {
		return f.ActivateSync(now, id, ratelimit.WorkSleep{}, writable)
	})
}

// ActivateFrom activates snapshot id read-only on every shard as
// ActivateSync does, each shard building its map from its own view of base
// (iosnap's ActivateFrom): base must be a live read-only view of this
// service, and a nil base is ActivateSync(id, false).
func (s *Service) ActivateFrom(id iosnap.SnapshotID, base *ServiceView) (*ServiceView, error) {
	if base != nil && base.s != s {
		return nil, errors.New("shard: activation base is a view of another service")
	}
	return s.activate(func(i int, f *iosnap.FTL, now sim.Time) (*iosnap.View, sim.Time, error) {
		var b *iosnap.View
		if base != nil {
			b = base.views[i]
		}
		return f.ActivateFrom(now, id, b)
	})
}

func (s *Service) activate(each func(i int, f *iosnap.FTL, now sim.Time) (*iosnap.View, sim.Time, error)) (*ServiceView, error) {
	v := &ServiceView{s: s, views: make([]*iosnap.View, len(s.shards))}
	err := s.fanOut(func(i int, f *iosnap.FTL, now sim.Time) (done sim.Time, err error) {
		v.views[i], done, err = each(i, f, now)
		return done, err
	})
	if err != nil {
		v.Deactivate()
		return nil, err
	}
	return v, nil
}

// Read fills buf from the snapshot image.
func (v *ServiceView) Read(lba int64, buf []byte) error {
	n, err := v.s.sectorsOf("read", len(buf))
	if err != nil {
		return err
	}
	return v.s.io(ioRead, v.views, lba, n, buf)
}

// Deactivate releases the activation on every shard that holds one.
func (v *ServiceView) Deactivate() error {
	return v.s.fanOut(func(i int, _ *iosnap.FTL, now sim.Time) (sim.Time, error) {
		if v.views[i] == nil {
			return now, nil
		}
		return v.views[i].Deactivate(now)
	})
}

// Summary is a single-barrier snapshot of everything a stats consumer
// wants: geometry, aggregate counts, and the per-shard counters plus
// virtual clocks (whose skew is the cross-shard load imbalance).
type Summary struct {
	Shards        int
	SectorSize    int
	Sectors       int64
	LiveSnapshots int
	MappedSectors int64
	PerShard      []iosnap.Stats
	Virtual       []sim.Time
	LockWait      []LockWait
}

// Summary collects the full statistics snapshot under one barrier, so all
// of its fields describe the same quiescent point (unlike calling
// LiveSnapshots, MappedSectors, and ShardStats back to back, which pays
// three barriers and lets I/O slip between them).
func (s *Service) Summary() Summary {
	s.barrier()
	defer s.release()
	sum := Summary{
		Shards:        len(s.shards),
		SectorSize:    s.SectorSize(),
		Sectors:       s.Sectors(),
		LiveSnapshots: s.shards[0].f.Tree().Live(), // IDs are aligned by the create barrier
		PerShard:      make([]iosnap.Stats, len(s.shards)),
		Virtual:       make([]sim.Time, len(s.shards)),
		LockWait:      make([]LockWait, len(s.shards)),
	}
	for i := range s.shards {
		sh := &s.shards[i]
		sum.MappedSectors += int64(sh.f.MappedSectors())
		sum.PerShard[i] = sh.f.Stats()
		sum.Virtual[i] = sh.vnow
		w := &sh.lockWait
		pct := func(p float64) time.Duration { return time.Duration(min(w.Percentile(p), w.Max())) }
		sum.LockWait[i] = LockWait{N: w.Count(), P50: pct(50), P99: pct(99), Max: time.Duration(w.Max())}
	}
	return sum
}

// ShardStats returns each shard's statistics plus its virtual clock at a
// quiescent point.
func (s *Service) ShardStats() ([]iosnap.Stats, []sim.Time) {
	sum := s.Summary()
	return sum.PerShard, sum.Virtual
}

// MaxVirtualTime returns the latest shard clock: the virtual makespan of
// everything executed so far.
func (s *Service) MaxVirtualTime() sim.Time { return slices.Max(s.Summary().Virtual) }

// CheckInvariants sweeps every shard at a quiescent point.
func (s *Service) CheckInvariants() error {
	s.barrier()
	defer s.release()
	var errs []error
	for i := range s.shards {
		if err := s.shards[i].f.CheckInvariants(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Close waits out in-flight ops (it is a barrier), then drains each
// shard's scheduler and closes its FTL at its final clock, the shards side
// by side. A shard whose close fails leaves the others closed, and the
// errors come back in shard order. As for one FTL, a final checkpoint that
// does not commit is no error (the shard's CheckpointErrors counts it, and
// its next mount is a full scan). Further calls on the service return
// ErrClosed.
func (s *Service) Close() error {
	s.barrier()
	defer s.release()
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	return errors.Join(s.eachShard(func(i int, sh *serviceShard) error {
		sh.advance(sh.f.Scheduler().Drain(sh.vnow))
		d, err := sh.f.Close(sh.vnow)
		sh.advance(d)
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		return nil
	})...)
}

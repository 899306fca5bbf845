package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"time"

	"iosnap/internal/iosnap"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/shard"
	"iosnap/internal/sim"
	"iosnap/internal/srv"
)

// The traced run replays one seeded, serial op stream (single caller, depth
// 1) at each boundary of the request path in turn, on a freshly prefilled
// device every time. A boundary's cost is then a subtraction: its median
// minus the median of the boundary below for the same op type. Every layer
// is timed from outside, around calls into its public functions.

type boundary int

const (
	bNand boundary = iota
	bIosnap
	bShard
	bSrv
	nBoundaries
)

var boundaryNames = [nBoundaries]string{"nand", "iosnap", "shard", "srv"}

// target is one boundary, as a single serial caller sees it. read and
// snapRead return n sectors in a buffer that stays valid until the next call.
type target interface {
	read(lba int64, n int) ([]byte, error)
	write(lba int64, data []byte) error
	snapCreate() (uint64, error)
	snapDelete(id uint64) error
	// activate readies snapshot id for snapRead and deactivate releases it,
	// where the caller does that itself (iosnap, shard); behind srv the
	// server's view cache does, inside the first snap-read.
	activate(id uint64) error
	deactivate() error
	snapRead(id uint64, lba int64, n int) ([]byte, error)
	close() error
}

// grow returns buf with length size, reallocating only when it must: the
// targets below reuse one read buffer per replay.
func grow(buf []byte, size int) []byte {
	if cap(buf) < size {
		return make([]byte, size)
	}
	return buf[:size]
}

// --- nand: the floor -----------------------------------------------------------

// nandTarget puts the same pages through ProgramPages, ReadPagesInto and
// EraseSegment on a bare device: no map, no validity, no cleaner. The fill
// gives every sector a home page; later writes append to a circular log
// behind the homes (erasing as it wraps) and reads fetch the homes, so the
// device does the same page work as under an FTL and nothing else.
type nandTarget struct {
	dev  *nand.Device
	lay  layout
	now  sim.Time
	home []nand.PageAddr // by sid; InvalidPage until the fill reaches it
	seg  int             // log head
	idx  int
	low  int // first segment of the circular log; 0 until the fill is done

	oob    [nand.OOBSize]byte
	addrs  []nand.PageAddr
	datas  [][]byte
	oobs   [][]byte
	rdatas [][]byte
	roobs  [][]byte
	buf    []byte
}

func newNandTarget(w *workload, g geometry, lay layout) *nandTarget {
	nc := nandConfig(w, g)
	nc.Segments *= g.shards
	nc.Channels *= g.shards
	t := &nandTarget{dev: nand.New(nc), lay: lay, home: make([]nand.PageAddr, lay.connSectors())}
	for i := range t.home {
		t.home[i] = nand.InvalidPage
	}
	return t
}

func (t *nandTarget) advance(done sim.Time) {
	if done > t.now {
		t.now = done
	}
}

func (t *nandTarget) write(lba int64, data []byte) error {
	cfg := t.dev.Config()
	ss, pps := cfg.SectorSize, cfg.PagesPerSegment
	sid := t.lay.sid(0, lba)
	for off := 0; off < len(data); {
		if t.idx == pps {
			t.idx = 0
			if t.seg++; t.seg == cfg.Segments {
				t.seg = t.low
			}
			if t.dev.NextFreeInSegment(t.seg) != 0 {
				done, err := t.dev.EraseSegment(t.now, t.seg)
				if err != nil {
					return err
				}
				t.advance(done)
			}
		}
		t.addrs, t.datas, t.oobs = t.addrs[:0], t.datas[:0], t.oobs[:0]
		for ; off < len(data) && t.idx < pps; off, t.idx, sid = off+ss, t.idx+1, sid+1 {
			addr := t.dev.Addr(t.seg, t.idx)
			if t.home[sid] == nand.InvalidPage {
				t.home[sid] = addr
			}
			t.addrs = append(t.addrs, addr)
			t.datas = append(t.datas, data[off:off+ss])
			t.oobs = append(t.oobs, t.oob[:])
		}
		_, done, err := t.dev.ProgramPages(t.now, t.addrs, t.datas, t.oobs)
		if err != nil {
			return err
		}
		t.advance(done)
	}
	return nil
}

// filled marks the end of the fill: the circular log starts behind the homes.
func (t *nandTarget) filled() {
	t.low = t.seg + 1
	t.idx = t.dev.Config().PagesPerSegment
	t.seg = t.dev.Config().Segments - 1
}

func (t *nandTarget) read(lba int64, n int) ([]byte, error) {
	ss := t.dev.Config().SectorSize
	sid := t.lay.sid(0, lba)
	t.addrs = append(t.addrs[:0], t.home[sid:sid+int64(n)]...)
	t.rdatas, t.roobs = t.rdatas[:0], t.roobs[:0]
	_, done, err := t.dev.ReadPagesInto(t.now, t.addrs, &t.rdatas, &t.roobs)
	if err != nil {
		return nil, err
	}
	t.advance(done)
	t.buf = grow(t.buf, n*ss)
	for i, d := range t.rdatas {
		copy(t.buf[i*ss:], d)
	}
	return t.buf, nil
}

var errNoSnapshots = fmt.Errorf("the nand boundary has no snapshots")

func (t *nandTarget) snapCreate() (uint64, error)                 { return 0, errNoSnapshots }
func (t *nandTarget) snapDelete(uint64) error                     { return errNoSnapshots }
func (t *nandTarget) activate(uint64) error                       { return errNoSnapshots }
func (t *nandTarget) deactivate() error                           { return errNoSnapshots }
func (t *nandTarget) snapRead(uint64, int64, int) ([]byte, error) { return nil, errNoSnapshots }
func (t *nandTarget) close() error                                { return nil }

// --- iosnap --------------------------------------------------------------------

// ftlTarget is one iosnap.FTL over the whole geometry, driven as a shard
// worker drives its own: run the scheduler up to the clock, execute at the
// clock, advance the clock to the completion.
type ftlTarget struct {
	f    *iosnap.FTL
	now  sim.Time
	view *iosnap.View
	buf  []byte

	// virt is the virtual duration of each snapshot op, by kind.
	virt [nKinds][]int64
}

func newFTLTarget(w *workload, g geometry) (*ftlTarget, error) {
	devs, err := formatDevices(w, g)
	if err != nil {
		return nil, err
	}
	cfg, err := shardConfig(w, devs)
	if err != nil {
		return nil, err
	}
	// One FTL stands in for all the shards, so it gets all their map caches.
	cfg.Base.MapCachePages *= g.shards
	f, err := iosnap.New(cfg.Base, nil)
	if err != nil {
		return nil, err
	}
	return &ftlTarget{f: f}, nil
}

// step runs one op at the clock and returns its virtual duration.
func (t *ftlTarget) step(op func(now sim.Time) (sim.Time, error)) (sim.Duration, error) {
	t.f.Scheduler().RunUntil(t.now)
	start := t.now
	done, err := op(t.now)
	if done > t.now {
		t.now = done
	}
	return t.now.Sub(start), err
}

func (t *ftlTarget) sized(n int) []byte {
	t.buf = grow(t.buf, n*t.f.SectorSize())
	return t.buf
}

func (t *ftlTarget) read(lba int64, n int) ([]byte, error) {
	buf := t.sized(n)
	_, err := t.step(func(now sim.Time) (sim.Time, error) { return t.f.Read(now, lba, buf) })
	return buf, err
}

func (t *ftlTarget) write(lba int64, data []byte) error {
	_, err := t.step(func(now sim.Time) (sim.Time, error) { return t.f.Write(now, lba, data) })
	return err
}

func (t *ftlTarget) snapCreate() (id uint64, err error) {
	d, err := t.step(func(now sim.Time) (sim.Time, error) {
		s, done, err := t.f.CreateSnapshot(now)
		if err == nil {
			id = uint64(s.ID)
		}
		return done, err
	})
	t.virt[kSnapCreate] = append(t.virt[kSnapCreate], int64(d))
	return id, err
}

func (t *ftlTarget) snapDelete(id uint64) error {
	d, err := t.step(func(now sim.Time) (sim.Time, error) {
		return t.f.DeleteSnapshot(now, iosnap.SnapshotID(id))
	})
	t.virt[kSnapDelete] = append(t.virt[kSnapDelete], int64(d))
	return err
}

func (t *ftlTarget) activate(id uint64) error {
	d, err := t.step(func(now sim.Time) (sim.Time, error) {
		v, done, err := t.f.ActivateSync(now, iosnap.SnapshotID(id), ratelimit.WorkSleep{}, false)
		t.view = v
		return done, err
	})
	t.virt[kActivate] = append(t.virt[kActivate], int64(d))
	return err
}

func (t *ftlTarget) deactivate() error {
	_, err := t.step(t.view.Deactivate)
	t.view = nil
	return err
}

func (t *ftlTarget) snapRead(_ uint64, lba int64, n int) ([]byte, error) {
	buf := t.sized(n)
	_, err := t.step(func(now sim.Time) (sim.Time, error) { return t.view.Read(now, lba, buf) })
	return buf, err
}

func (t *ftlTarget) close() error {
	_, err := t.f.Close(t.now)
	return err
}

// --- shard ---------------------------------------------------------------------

// svcTarget is shard.Service called in-process, mounted as the daemon mounts.
type svcTarget struct {
	svc  *shard.Service
	view *shard.ServiceView
	buf  []byte
}

func newSvcTarget(w *workload, g geometry) (*svcTarget, error) {
	devs, err := formatDevices(w, g)
	if err != nil {
		return nil, err
	}
	svc, err := mountService(w, devs)
	if err != nil {
		return nil, err
	}
	return &svcTarget{svc: svc}, nil
}

func (t *svcTarget) sized(n int) []byte {
	t.buf = grow(t.buf, n*t.svc.SectorSize())
	return t.buf
}

func (t *svcTarget) read(lba int64, n int) ([]byte, error) {
	buf := t.sized(n)
	return buf, t.svc.Read(lba, buf)
}

func (t *svcTarget) write(lba int64, data []byte) error { return t.svc.Write(lba, data) }

func (t *svcTarget) snapCreate() (uint64, error) {
	id, err := t.svc.CreateSnapshot()
	return uint64(id), err
}

func (t *svcTarget) snapDelete(id uint64) error {
	return t.svc.DeleteSnapshot(iosnap.SnapshotID(id))
}

func (t *svcTarget) activate(id uint64) (err error) {
	t.view, err = t.svc.ActivateSync(iosnap.SnapshotID(id), false)
	return err
}

func (t *svcTarget) deactivate() error {
	err := t.view.Deactivate()
	t.view = nil
	return err
}

func (t *svcTarget) snapRead(_ uint64, lba int64, n int) ([]byte, error) {
	buf := t.sized(n)
	return buf, t.view.Read(lba, buf)
}

func (t *svcTarget) close() error { return t.svc.Close() }

// --- srv -----------------------------------------------------------------------

// srvTarget is the whole stack: srv.Client over loopback to the in-process
// server.
type srvTarget struct {
	st *stack
	c  *srv.Client
}

func newSrvTarget(w *workload, g geometry) (*srvTarget, error) {
	st, err := newStack(w, g)
	if err != nil {
		return nil, err
	}
	c, err := srv.DialOpts(st.addr(), srv.DialOptions{Window: 1})
	if err != nil {
		return nil, err
	}
	return &srvTarget{st: st, c: c}, nil
}

func (t *srvTarget) read(lba int64, n int) ([]byte, error) { return t.c.Read(lba, n) }
func (t *srvTarget) write(lba int64, data []byte) error    { return t.c.Write(lba, data) }
func (t *srvTarget) snapCreate() (uint64, error)           { return t.c.SnapCreate() }
func (t *srvTarget) snapDelete(id uint64) error            { return t.c.SnapDelete(id) }
func (t *srvTarget) activate(uint64) error                 { return nil }
func (t *srvTarget) deactivate() error                     { return nil }
func (t *srvTarget) snapRead(id uint64, lba int64, n int) ([]byte, error) {
	return t.c.SnapRead(id, lba, n)
}

func (t *srvTarget) close() error {
	t.c.Close()
	if err := t.st.stopServing(); err != nil {
		return err
	}
	return t.st.svc.Close()
}

// --- spans ---------------------------------------------------------------------

// span is one call into a layer. Spans of one request share req, its index
// in the op stream; parent is the index, in the span list, of the same
// request's span one boundary up (-1 at srv, the outermost).
type span struct {
	req      int32
	layer    boundary
	op       opKind
	start    int64 // ns since the run's epoch
	end      int64
	parent   int32
	recorded bool
}

// ladder is one traced run: the replay at every boundary and its spans. The
// first nBoundaries*ops spans are the stream's own ops, at index
// boundary*ops+req, so a parent is found by arithmetic; the spans of the ops
// a fence adds (delete, activate) follow.
type ladder struct {
	w     *workload
	g     geometry
	seed  uint64
	lay   layout
	epoch time.Time
	spans []span
	ones  []uint32 // the versions the nand floor reads back: every home page holds the fill
	tally tally
}

func newLadder(w *workload, g geometry, seed uint64) *ladder {
	lay := newLayout(w, g, 1)
	l := &ladder{w: w, g: g, seed: seed, lay: lay, epoch: time.Now()}
	// Room for the ops the fences add (a delete and an activate each, at
	// three boundaries), so that recording never allocates mid-replay.
	main, added := int(nBoundaries)*w.ladderOps, 16
	if w.snapEvery > 0 {
		added += 8 * w.ladderOps / w.snapEvery
	}
	l.spans = make([]span, main, main+added)
	l.ones = make([]uint32, lay.connSectors())
	for i := range l.ones {
		l.ones[i] = 1
	}
	return l
}

func (l *ladder) mainIndex(b boundary, req int) int32 { return int32(int(b)*l.w.ladderOps + req) }

// record stores a span; req's own op goes to its fixed slot, an added op is
// appended as a child of that slot.
func (l *ladder) record(b boundary, req int, k opKind, start int64, added bool) {
	s := span{req: int32(req), layer: b, op: k, start: start, end: int64(time.Since(l.epoch)), parent: -1, recorded: true}
	switch {
	case added:
		s.parent = l.mainIndex(b, req)
		l.spans = append(l.spans, s)
		return
	case b+1 < nBoundaries:
		s.parent = l.mainIndex(b+1, req)
	}
	l.spans[l.mainIndex(b, req)] = s
}

// prefill fills and ages the device through the boundary, untimed.
func (l *ladder) prefill(t target, m *model) error {
	n := l.g.fillSectors
	units := l.lay.units(n)
	next := fillStream(units, ageWrites(l.w, l.g, 1), newRNG(l.seed, 0, "fill"))
	wbuf := make([]byte, n*l.w.sectorSize)
	for i := int64(0); ; i++ {
		o, ok := next()
		if !ok {
			return nil
		}
		if nt, isNand := t.(*nandTarget); isNand && i == units {
			nt.filled()
		}
		lba := l.lay.lba(0, o.unit, n)
		m.stamp(wbuf, lba, n, l.w.sectorSize)
		if err := t.write(lba, wbuf); err != nil {
			return fmt.Errorf("prefill: %w", err)
		}
	}
}

// replayStats is what one boundary's replay cost the host.
type replayStats struct {
	ops     int
	mallocs uint64
	bytes   uint64
}

// replay drives the seeded op stream through t, one op at a time, recording
// a span around every call and checking every byte read.
func (l *ladder) replay(b boundary, t target, m *model) (replayStats, error) {
	var rs replayStats
	n, ss := l.w.opSectors, l.w.sectorSize
	next := mixStream(l.w, l.lay.units(n), l.w.ladderOps, newRNG(l.seed, 0, "ladder"))
	wbuf := make([]byte, n*ss)
	live := m.ver
	if b == bNand {
		live = l.ones
	}
	var active uint64 // snapshot the caller holds activated; 0 = none
	clock := func() int64 { return int64(time.Since(l.epoch)) }
	done := func(req int, k opKind, start int64, added bool, err error) {
		l.record(b, req, k, start, added)
		rs.ops++
		l.tally.attempted++
		if err != nil {
			l.tally.fail("%s replay, op %d (%s): %v", boundaryNames[b], req, kindNames[k], err)
		}
	}
	callerActivates := b == bIosnap || b == bShard

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for req := 0; ; req++ {
		o, ok := next()
		if !ok {
			break
		}
		if b == bNand && (o.kind == kSnapCreate || o.kind == kSnapRead) {
			continue
		}
		if o.kind == kSnapRead && len(m.snaps) == 0 {
			o.kind = kRead
		}
		lba := l.lay.lba(0, o.unit, n)
		switch o.kind {
		case kRead:
			start := clock()
			body, err := t.read(lba, n)
			done(req, kRead, start, false, err)
			if err == nil {
				m.check(body, lba, n, ss, live, &l.tally)
			}
		case kWrite:
			m.stamp(wbuf, lba, n, ss) // before the clock: the span times the layer, not the generator
			start := clock()
			err := t.write(lba, wbuf)
			done(req, kWrite, start, false, err)
		case kSnapRead:
			s := m.snaps[len(m.snaps)-1]
			if callerActivates && active != s.id {
				if active != 0 {
					if err := t.deactivate(); err != nil {
						return rs, err
					}
				}
				start := clock()
				err := t.activate(s.id)
				done(req, kActivate, start, true, err)
				if err != nil {
					return rs, err
				}
				active = s.id
			}
			start := clock()
			body, err := t.snapRead(s.id, lba, n)
			done(req, kSnapRead, start, false, err)
			if err == nil {
				m.check(body, lba, n, ss, s.ver, &l.tally)
			}
		case kSnapCreate:
			start := clock()
			id, err := t.snapCreate()
			done(req, kSnapCreate, start, false, err)
			if err != nil {
				return rs, err
			}
			m.snaps = append(m.snaps, snapshot{id: id, ver: append([]uint32(nil), m.ver...)})
			if len(m.snaps) <= keepSnaps {
				continue
			}
			old := m.snaps[0]
			m.snaps = m.snaps[1:]
			if active == old.id {
				if err := t.deactivate(); err != nil {
					return rs, err
				}
				active = 0
			}
			start = clock()
			err = t.snapDelete(old.id)
			done(req, kSnapDelete, start, true, err)
		}
	}
	runtime.ReadMemStats(&ms1)
	rs.mallocs, rs.bytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	if active != 0 {
		if err := t.deactivate(); err != nil {
			return rs, err
		}
	}
	return rs, nil
}

// spanCostNs times the recording of a span on its own: two clock reads and
// a store into a preallocated slice.
func spanCostNs() float64 {
	const n = 1 << 18
	w := workload{ladderOps: n / int(nBoundaries)}
	l := &ladder{w: &w, epoch: time.Now(), spans: make([]span, n)}
	t0 := time.Now()
	for req := 0; req < w.ladderOps; req++ {
		for b := bNand; b < nBoundaries; b++ {
			l.record(b, req, kRead, int64(time.Since(l.epoch)), false)
		}
	}
	return float64(time.Since(t0)) / n
}

// durations collects the recorded spans' lengths in ns by boundary and kind.
func (l *ladder) durations() (d [nBoundaries][nKinds][]int64, recorded int) {
	for i := range l.spans {
		if s := &l.spans[i]; s.recorded {
			d[s.layer][s.op] = append(d[s.layer][s.op], s.end-s.start)
			recorded++
		}
	}
	return d, recorded
}

// writeSpans writes the recorded spans as JSON lines; parent names another
// line's id.
func (l *ladder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	for i := range l.spans {
		s := &l.spans[i]
		if !s.recorded {
			continue
		}
		fmt.Fprintf(bw, `{"id":%d,"req":%d,"layer":%q,"op":%q,"start_ns":%d,"end_ns":%d,"parent":%d}`+"\n",
			i, s.req, boundaryNames[s.layer], kindNames[s.op], s.start, s.end, s.parent)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

package main

import (
	"fmt"
	"sync"
	"time"

	"iosnap/internal/nand"
	"iosnap/internal/shard"
	"iosnap/internal/srv"
)

// The pipeline depths. Throughput is measured with 16 requests in flight per
// connection. Latency is measured with 2, not 1: at depth 1 on two CPUs a
// reply finds the next goroutine in its chain spinning, parked or asleep more
// or less at random, the latency distribution has modes at 15, 22 and 30 us,
// and its median moved by a third between back-to-back repetitions; with a
// second request in flight the threads stay hot, the distribution has one
// mode and the median repeats within a few percent.
const (
	qdDepth  = 16
	latDepth = 2
)

// tally counts every op the benchmark issues against the ones that came back
// wrong: in-band errors, refused ops, short reads and payload mismatches.
type tally struct {
	attempted int64
	failed    int64
	firstErr  string
}

func (t *tally) fail(format string, args ...any) {
	t.failed++
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == "" {
		t.firstErr = o.firstErr
	}
}

// model is one connection's oracle: the version each sector of its share
// was last written at, and the versions frozen in every snapshot it holds.
// Only the connection that owns an LBA writes it and only the connection
// that created a snapshot reads it, so the model needs no lock and every
// read has exactly one right answer.
type model struct {
	conn  int
	lay   layout
	ver   []uint32
	snaps []snapshot // oldest first
}

type snapshot struct {
	id  uint64
	ver []uint32
}

func newModel(conn int, lay layout) *model {
	return &model{conn: conn, lay: lay, ver: make([]uint32, lay.connSectors())}
}

// stamp advances the version of n sectors at lba and fills buf with their
// new payloads.
func (m *model) stamp(buf []byte, lba int64, n, ss int) {
	sid := m.lay.sid(m.conn, lba)
	for j := 0; j < n; j++ {
		m.ver[sid+int64(j)]++
		fillSector(buf[j*ss:(j+1)*ss], lba+int64(j), m.ver[sid+int64(j)])
	}
}

// check compares n sectors read at lba against ver (the live versions or a
// snapshot's).
func (m *model) check(body []byte, lba int64, n, ss int, ver []uint32, t *tally) {
	if len(body) != n*ss {
		t.fail("read of %d sectors at lba %d returned %d bytes", n, lba, len(body))
		return
	}
	sid := m.lay.sid(m.conn, lba)
	for j := 0; j < n; j++ {
		if !checkSector(body[j*ss:(j+1)*ss], lba+int64(j), ver[sid+int64(j)]) {
			t.fail("payload mismatch at lba %d (want version %d)", lba+int64(j), ver[sid+int64(j)])
			return
		}
	}
}

// driver is one closed-loop connection: it keeps up to depth requests in
// flight and issues the next only when a slot frees, as a block-device
// caller waiting for its replies does.
type driver struct {
	m  *model
	c  *srv.Client
	ss int

	tally          tally
	lat            [nKinds][]int64 // ns; per-op kinds only in the latency phase, fences always
	sectorsWritten int64
}

type pending struct {
	call  *srv.Call
	kind  opKind
	lba   int64
	ver   []uint32 // versions a read is checked against
	start time.Time
}

// overlaps reports whether an op of kind k at [lba, lba+n) must not be in
// flight together with p. Protocol v2 promises no order among in-flight
// requests, so a write never shares a sector with another live op; reads
// may share with reads, and snap-reads see a frozen image.
func (p *pending) overlaps(k opKind, lba int64, n int) bool {
	if k == kSnapRead || p.kind == kSnapRead || (k != kWrite && p.kind != kWrite) {
		return false
	}
	return lba < p.lba+int64(n) && p.lba < lba+int64(n)
}

// run drives next through the connection at the given depth; timed says
// whether per-op latencies are kept.
func (d *driver) run(depth, n int, next stream, timed bool) {
	ring := make([]pending, depth) // FIFO of in-flight ops
	head, cnt := 0, 0
	harvest := func() {
		d.harvest(&ring[head], n, timed)
		head = (head + 1) % depth
		cnt--
	}
	wbuf := make([]byte, n*d.ss)
	for {
		o, ok := next()
		if !ok {
			break
		}
		if o.kind == kSnapCreate {
			// A fence: a write pipelined behind an in-flight create can land
			// inside the snapshot, so the connection drains, creates, waits,
			// and only then resumes. The other connection keeps its depth.
			for cnt > 0 {
				harvest()
			}
			d.fence()
			continue
		}
		if o.kind == kSnapRead && len(d.m.snaps) == 0 {
			o.kind = kRead
		}
		lba := d.m.lay.lba(d.m.conn, o.unit, n)
		for i := 0; i < cnt; {
			if ring[(head+i)%depth].overlaps(o.kind, lba, n) {
				harvest() // oldest first, until the conflicting op is out
				i = 0
				continue
			}
			i++
		}
		p := &ring[(head+cnt)%depth]
		*p = pending{kind: o.kind, lba: lba, ver: d.m.ver}
		if o.kind == kWrite {
			d.m.stamp(wbuf, lba, n, d.ss)
			d.sectorsWritten += int64(n)
		}
		p.start = time.Now() // after the payload is made: the clock times the system, not the generator
		switch o.kind {
		case kRead:
			p.call = d.c.GoRead(lba, n)
		case kWrite:
			p.call = d.c.GoWrite(lba, wbuf)
		case kSnapRead:
			s := d.m.snaps[len(d.m.snaps)-1]
			p.ver = s.ver
			p.call = d.c.GoSnapRead(s.id, lba, n)
		}
		cnt++
		// Requests sit in the client's write buffer until someone waits, so a
		// full window is harvested now, not after the next op is generated.
		if cnt == depth {
			harvest()
		}
	}
	for cnt > 0 {
		harvest()
	}
}

func (d *driver) harvest(p *pending, n int, timed bool) {
	body, err := p.call.Wait()
	end := time.Now()
	d.tally.attempted++
	if err != nil {
		d.tally.fail("%s at lba %d: %v", kindNames[p.kind], p.lba, err)
		return
	}
	if p.kind != kWrite {
		d.m.check(body, p.lba, n, d.ss, p.ver, &d.tally)
	}
	if timed {
		d.lat[p.kind] = append(d.lat[p.kind], int64(end.Sub(p.start)))
	}
}

// fence creates a snapshot with nothing of this connection in flight, copies
// the connection's versions as the snapshot's oracle, and deletes the oldest
// snapshot once the connection holds more than keepSnaps.
func (d *driver) fence() {
	start := time.Now()
	id, err := d.c.SnapCreate()
	d.lat[kSnapCreate] = append(d.lat[kSnapCreate], int64(time.Since(start)))
	d.tally.attempted++
	if err != nil {
		d.tally.fail("snap-create: %v", err)
		return
	}
	d.m.snaps = append(d.m.snaps, snapshot{id: id, ver: append([]uint32(nil), d.m.ver...)})
	if len(d.m.snaps) > keepSnaps {
		d.deleteOldest()
	}
}

func (d *driver) deleteOldest() {
	old := d.m.snaps[0]
	d.m.snaps = d.m.snaps[1:]
	start := time.Now()
	err := d.c.SnapDelete(old.id)
	d.lat[kSnapDelete] = append(d.lat[kSnapDelete], int64(time.Since(start)))
	d.tally.attempted++
	if err != nil {
		d.tally.fail("snap-delete %d: %v", old.id, err)
	}
}

// counters is what the benchmark reads at a quiescent point: a Summary
// barrier (no op in flight behind it) and then the devices' own counters.
type counters struct {
	sum shard.Summary
	dev nand.Stats
}

func (st *stack) counters() counters {
	sum := st.svc.Summary()
	return counters{sum: sum, dev: devStats(st.devs)}
}

// phaseStats is one phase of a load run, measured from outside.
type phaseStats struct {
	ops            int64
	elapsed        time.Duration
	cpu            time.Duration
	lat            [nKinds][]int64
	sectorsWritten int64
	before, after  counters
}

// virtAdvance is each shard's virtual-clock advance over the phase.
func (p *phaseStats) virtAdvance() []float64 {
	adv := make([]float64, len(p.after.sum.Virtual))
	for i := range adv {
		adv[i] = float64(p.after.sum.Virtual[i] - p.before.sum.Virtual[i])
	}
	return adv
}

// loadRun is the closed-loop half of the benchmark: setup, qd16, qd2.
type loadRun struct {
	w       *workload
	g       geometry
	seed    uint64
	seconds int

	st      *stack
	drivers []*driver
	tally   tally // ops of torn-down setups and of the restart phase
}

// phase runs one stream per connection, all started together, and measures
// the span from the first start to the last finish.
func (r *loadRun) phase(depth, opSectors int, mk func(conn int) stream) phaseStats {
	timed := depth == latDepth
	var ps phaseStats
	for _, d := range r.drivers {
		ps.ops -= d.tally.attempted
		d.lat = [nKinds][]int64{}
		d.sectorsWritten = 0
	}
	ps.before = r.st.counters()
	cpu0, t0 := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for i, d := range r.drivers {
		wg.Add(1)
		go func(d *driver, s stream) {
			defer wg.Done()
			d.run(depth, opSectors, s, timed)
		}(d, mk(i))
	}
	wg.Wait()
	ps.elapsed, ps.cpu = time.Since(t0), cpuTime()-cpu0
	ps.after = r.st.counters()
	for _, d := range r.drivers {
		ps.ops += d.tally.attempted
		ps.sectorsWritten += d.sectorsWritten
		for k := range d.lat {
			ps.lat[k] = append(ps.lat[k], d.lat[k]...)
		}
	}
	return ps
}

// setup is phase 1: format, mount and serve as the daemon does, dial the
// connections, fill and age the working set with prefill-sized writes, then
// warm up on the workload's own mix. It returns how far the warm-up left the
// log: NAND pages programmed since format over raw pages.
func (r *loadRun) setup() (wraps float64, err error) {
	r.st, err = newStack(r.w, r.g)
	if err != nil {
		return 0, err
	}
	lay := newLayout(r.w, r.g, loadConns)
	r.drivers = r.drivers[:0]
	for i := 0; i < loadConns; i++ {
		c, err := srv.DialOpts(r.st.addr(), srv.DialOptions{Window: qdDepth})
		if err != nil {
			return 0, err
		}
		if c.Proto() != 2 {
			return 0, fmt.Errorf("connection negotiated protocol v%d, want v2", c.Proto())
		}
		r.drivers = append(r.drivers, &driver{m: newModel(i, lay), c: c, ss: r.w.sectorSize})
	}
	fill := r.g.fillSectors
	r.phase(qdDepth, fill, func(conn int) stream {
		return fillStream(lay.units(fill), ageWrites(r.w, r.g, loadConns), newRNG(r.seed, conn, "fill"))
	})
	warm := r.mix("warmup", qdDepth, r.w.warmupOps)
	raw := float64(r.g.shards) * float64(nandConfig(r.w, r.g).TotalPages())
	return float64(warm.after.dev.PagePrograms) / raw, nil
}

// mix runs refOps (scaled to the run length) of the workload's own mix at
// the given depth; phase names the stream.
func (r *loadRun) mix(phase string, depth, refOps int) phaseStats {
	units := newLayout(r.w, r.g, loadConns).units(r.w.opSectors)
	perConn := scaled(refOps, r.seconds) / loadConns
	return r.phase(depth, r.w.opSectors, func(conn int) stream {
		return mixStream(r.w, units, perConn, newRNG(r.seed, conn, phase))
	})
}

// hangUp closes the connections, keeping their ops counted, and returns
// their models.
func (r *loadRun) hangUp() []*model {
	models := make([]*model, len(r.drivers))
	for i, d := range r.drivers {
		models[i] = d.m
		r.tally.add(d.tally)
		d.c.Close()
	}
	r.drivers = nil
	return models
}

// teardown stops a stack the run no longer needs.
func (r *loadRun) teardown() error {
	r.hangUp()
	if err := r.st.stopServing(); err != nil {
		return err
	}
	return r.st.svc.Close()
}

// trimSnapshots leaves each connection its newest snapshot only, so the
// restart phase has one live snapshot per connection to verify.
func (r *loadRun) trimSnapshots() {
	for _, d := range r.drivers {
		for len(d.m.snaps) > 1 {
			d.deleteOldest()
		}
	}
}

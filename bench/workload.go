package main

import (
	"encoding/binary"
	"math/bits"

	"iosnap/internal/iosnap"
	"iosnap/internal/nand"
)

// geometry is the device shape under a workload. The benchmark runs the
// daemon's default; the tests run a miniature so the same code finishes in
// seconds under the race detector.
type geometry struct {
	shards      int // FTL shards (iosnapd -shards)
	segments    int // erase blocks per shard (iosnapd -megabytes, at 1 MiB segments)
	segBytes    int // bytes per erase block
	fillSectors int // sectors per prefill write
}

var daemonGeometry = geometry{shards: 4, segments: 64, segBytes: 1 << 20, fillSectors: 64}

// loadConns is the number of closed-loop connections: nproc on the box the
// bounds were sized on. It is a constant, not runtime.NumCPU, so that a
// result from another box is the same workload and says so in its host facts.
const loadConns = 2

// refSeconds is the run length the op counts below are sized for; -seconds
// scales them linearly. Phases are op counts, never durations, so both sides
// of a comparison do identical work.
const refSeconds = 10

// workload is one traffic mix. Op counts are totals over both connections
// at refSeconds.
type workload struct {
	name string
	why  string

	sectorSize    int
	mapCachePages int // per shard; 0 keeps the in-RAM map
	wsPct         int // working set as a share of every shard's user range
	opSectors     int // sectors per op
	readPct       int
	writePct      int // the rest are snap-reads of the connection's newest snapshot
	hotCold       bool
	snapEvery     int // every snapEvery-th op of a connection is a snap-create fence; 0 = never
	agePct        int // random prefill-sized overwrites after the fill, as a share of raw capacity

	warmupOps int
	qd16Ops   int
	qd2Ops    int
	ladderOps int // serial traced replay, per boundary; not scaled by -seconds
}

// keepSnaps is how many snapshots a connection holds before each create is
// followed by a delete of its oldest.
const keepSnaps = 4

// The four workloads. Each exists to put one group of layers to work and to
// leave another idle, so that a change to a layer has a workload that must
// move and one that must not; bench/README.md has the full table.
var workloads = []workload{
	{
		name:       "rand-read-4k",
		why:        "uniform 1-sector reads: a microsecond of FTL under tens of microseconds of wire and queueing, so srv and shard do the work and the cleaner, map cache and snapshots idle",
		sectorSize: 4096, wsPct: 75, opSectors: 1, readPct: 100,
		warmupOps: 60_000, qd16Ops: 600_000, qd2Ops: 220_000, ladderOps: 40_000,
	},
	{
		name:       "mixed-256k",
		why:        "64-sector ops, half reads half writes, cleaner running: per-request overhead is under 3% of an op, so the batched data path, GC copy-forward and nand dominate",
		sectorSize: 4096, wsPct: 75, opSectors: 64, readPct: 50, writePct: 50, agePct: 50,
		warmupOps: 2_000, qd16Ops: 24_000, qd2Ops: 18_000, ladderOps: 2_500,
	},
	{
		name:       "snap-churn",
		why:        "the paper's scenario: hot/cold 1-sector mix with a snap-create fence every 2048 ops per connection, snap-reads, deletes and the cleaner; barrier, CoW validity, activation and view cache work",
		sectorSize: 4096, wsPct: 60, opSectors: 1, readPct: 60, writePct: 30, hotCold: true, snapEvery: 2048, agePct: 50,
		warmupOps: 40_000, qd16Ops: 300_000, qd2Ops: 160_000, ladderOps: 40_000,
	},
	{
		name:       "paged-map",
		why:        "512 B sectors with a 256-page map cache per shard (~7% of the map): the one workload larger than the program's own cache, so translation-page faults and write-back do the work",
		sectorSize: 512, mapCachePages: 256, wsPct: 75, opSectors: 1, readPct: 50, writePct: 50, hotCold: true, agePct: 50,
		warmupOps: 40_000, qd16Ops: 400_000, qd2Ops: 200_000, ladderOps: 40_000,
	},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// scaled converts a refSeconds op count to the requested run length, kept a
// multiple of the connection count so every connection issues the same number.
func scaled(ops, seconds int) int {
	n := ops * seconds / refSeconds / loadConns * loadConns
	if n < loadConns {
		n = loadConns
	}
	return n
}

func nandConfig(w *workload, g geometry) nand.Config {
	nc := nand.DefaultConfig()
	nc.SectorSize = w.sectorSize
	nc.PagesPerSegment = g.segBytes / w.sectorSize
	nc.Segments = g.segments
	nc.StoreData = true
	return nc
}

// layout places the working set. The daemon partitions the device
// contiguously, so a working set filled from LBA 0 would fill shard 0 to the
// brim and leave shard 3 empty; instead every shard holds wsPerShard sectors
// at the bottom of its range, split evenly between the connections, whose
// LBAs are therefore disjoint.
type layout struct {
	shards     int64
	perShard   int64 // user sectors per shard
	wsPerShard int64
	conns      int64
}

func newLayout(w *workload, g geometry, conns int) layout {
	per := iosnap.DefaultConfig(nandConfig(w, g)).UserSectors
	// Each connection's share of a shard is a whole number of prefill writes
	// (and so of ops, whose size divides the prefill's).
	chunk := int64(conns * g.fillSectors)
	return layout{
		shards:     int64(g.shards),
		perShard:   per,
		wsPerShard: per * int64(w.wsPct) / 100 / chunk * chunk,
		conns:      int64(conns),
	}
}

// share is the number of sectors one connection owns in one shard.
func (l layout) share() int64 { return l.wsPerShard / l.conns }

// connSectors is the number of sectors one connection owns.
func (l layout) connSectors() int64 { return l.shards * l.share() }

// units is the number of n-sector slots one connection owns.
func (l layout) units(n int) int64 { return l.connSectors() / int64(n) }

// lba maps a connection's n-sector slot to its global LBA. Consecutive slots
// rotate across shards, so a uniform draw and a hot set taken from the low
// slots both load every shard equally.
func (l layout) lba(conn int, unit int64, n int) int64 {
	shard, within := unit%l.shards, unit/l.shards
	return shard*l.perShard + int64(conn)*l.share() + within*int64(n)
}

// sid maps a global LBA owned by conn to its index in that connection's
// version array.
func (l layout) sid(conn int, lba int64) int64 {
	shard, local := lba/l.perShard, lba%l.perShard
	return shard*l.share() + local - int64(conn)*l.share()
}

// --- payloads ----------------------------------------------------------------

const golden = 0x9E3779B97F4A7C15

func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}

// The payload of sector lba at version ver is a pure function of the two: a
// 64-bit ramp from a mixed base. Every byte differs between versions and
// between sectors, and a check is one pass with no scratch buffer.
func sectorBase(lba int64, ver uint32) uint64 { return mix64(uint64(lba)<<32 | uint64(ver)) }

func fillSector(b []byte, lba int64, ver uint32) {
	x := sectorBase(lba, ver)
	for i := 0; i+8 <= len(b); i += 8 {
		binary.LittleEndian.PutUint64(b[i:], x)
		x += golden
	}
}

func checkSector(b []byte, lba int64, ver uint32) bool {
	x := sectorBase(lba, ver)
	for i := 0; i+8 <= len(b); i += 8 {
		if binary.LittleEndian.Uint64(b[i:]) != x {
			return false
		}
		x += golden
	}
	return true
}

// --- op streams --------------------------------------------------------------

type opKind uint8

const (
	kRead opKind = iota
	kWrite
	kSnapRead
	kSnapCreate
	kSnapDelete // never generated: follows a create when a connection holds more than keepSnaps
	kActivate   // never generated: a span inside the first snap-read of a snapshot
	nKinds
)

var kindNames = [nKinds]string{"read", "write", "snap_read", "snap_create", "snap_delete", "activate"}

type op struct {
	kind opKind
	unit int64 // slot index in the connection's share, in units of the stream's op size
}

// rng is splitmix64: the op stream must be a pure function of the seed on
// every Go version, which math/rand's top-level functions do not promise.
type rng uint64

func newRNG(seed uint64, conn int, phase string) rng {
	s := mix64(seed + golden*uint64(conn+1))
	for i := 0; i < len(phase); i++ {
		s = mix64(s ^ uint64(phase[i]))
	}
	return rng(s)
}

func (r *rng) next() uint64 {
	*r += golden
	return mix64(uint64(*r))
}

func (r *rng) intn(n int64) int64 {
	hi, _ := bits.Mul64(r.next(), uint64(n))
	return int64(hi)
}

// stream yields a connection's ops in order; ok is false when it is done.
type stream func() (o op, ok bool)

// mixStream is n ops of the workload's own mix over a connection's slots.
func mixStream(w *workload, units int64, n int, r rng) stream {
	hot := units / 10
	i := 0
	return func() (op, bool) {
		if i >= n {
			return op{}, false
		}
		i++
		if w.snapEvery > 0 && (i-1)%w.snapEvery == 0 {
			return op{kind: kSnapCreate}, true
		}
		kind := kSnapRead
		if p := int(r.intn(100)); p < w.readPct {
			kind = kRead
		} else if p < w.readPct+w.writePct {
			kind = kWrite
		}
		unit := int64(0)
		switch {
		case !w.hotCold:
			unit = r.intn(units)
		case r.intn(10) < 9: // 90% of accesses go to the first 10% of slots
			unit = r.intn(hot)
		default:
			unit = hot + r.intn(units-hot)
		}
		return op{kind: kind, unit: unit}, true
	}
}

// fillStream writes every slot once in order, then ages the log with age
// uniform overwrites so the measured phases start with the cleaner at work
// instead of appending to a fresh log.
func fillStream(units, age int64, r rng) stream {
	i := int64(0)
	return func() (op, bool) {
		if i >= units+age {
			return op{}, false
		}
		i++
		if i <= units {
			return op{kind: kWrite, unit: i - 1}, true
		}
		return op{kind: kWrite, unit: r.intn(units)}, true
	}
}

// ageWrites is how many prefill-sized overwrites one connection issues after
// the fill.
func ageWrites(w *workload, g geometry, conns int) int64 {
	rawSectors := int64(g.shards) * int64(g.segments) * int64(g.segBytes/w.sectorSize)
	return rawSectors * int64(w.agePct) / 100 / int64(g.fillSectors) / int64(conns)
}

package main

import (
	"reflect"
	"testing"
)

// miniGeometry and mini shrink a workload until all four phases and the
// ladder run in about a second under the race detector, on the same code.
var miniGeometry = geometry{shards: 2, segments: 32, segBytes: 64 << 10, fillSectors: 8}

func mini(w workload) workload {
	if w.opSectors > 1 {
		w.opSectors = miniGeometry.fillSectors
	}
	if w.mapCachePages > 0 {
		w.mapCachePages = 8 // of 112 translation pages per shard: the same ~7%
	}
	if w.snapEvery > 0 {
		w.snapEvery = 100
	}
	w.warmupOps, w.qd16Ops, w.qd2Ops, w.ladderOps = 400, 1600, 600, 600
	return w
}

func drain(s stream) []op {
	var ops []op
	for {
		o, ok := s()
		if !ok {
			return ops
		}
		ops = append(ops, o)
	}
}

// The op stream is a pure function of seed, connection and phase.
func TestStreamIsPureFunctionOfSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		units := newLayout(w, daemonGeometry, loadConns).units(w.opSectors)
		gen := func(seed uint64, conn int, phase string) []op {
			return drain(mixStream(w, units, 5000, newRNG(seed, conn, phase)))
		}
		base := gen(1, 0, "qd16")
		if len(base) != 5000 {
			t.Fatalf("%s: %d ops, want 5000", w.name, len(base))
		}
		if !reflect.DeepEqual(base, gen(1, 0, "qd16")) {
			t.Errorf("%s: same seed, different stream", w.name)
		}
		for what, other := range map[string][]op{
			"seed": gen(2, 0, "qd16"), "connection": gen(1, 1, "qd16"), "phase": gen(1, 0, "qd2"),
		} {
			if reflect.DeepEqual(base, other) {
				t.Errorf("%s: another %s gives the same stream", w.name, what)
			}
		}
		for j, o := range base {
			if fence := w.snapEvery > 0 && j%w.snapEvery == 0; fence != (o.kind == kSnapCreate) {
				t.Fatalf("%s: op %d is %s", w.name, j, kindNames[o.kind])
			}
			if o.unit < 0 || o.unit >= units {
				t.Fatalf("%s: op %d slot %d out of %d", w.name, j, o.unit, units)
			}
		}
	}
	fill := func() []op { return drain(fillStream(100, 50, newRNG(1, 0, "fill"))) }
	if a := fill(); len(a) != 150 || !reflect.DeepEqual(a, fill()) {
		t.Errorf("fill stream is not repeatable")
	}
}

// The mix is what the table says it is, and a hot/cold stream sends nine
// accesses in ten to the first tenth of the slots.
func TestStreamMix(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		units := newLayout(w, daemonGeometry, loadConns).units(w.opSectors)
		var kinds [nKinds]int
		hot, n := 0, 200000
		for _, o := range drain(mixStream(w, units, n, newRNG(7, 0, "qd16"))) {
			kinds[o.kind]++
			if o.kind != kSnapCreate && o.unit < units/10 {
				hot++
			}
		}
		data := n - kinds[kSnapCreate]
		near := func(what string, got, pct int) {
			if want := data * pct / 100; got < want-data/100 || got > want+data/100 {
				t.Errorf("%s: %d %s of %d, want about %d%%", w.name, got, what, data, pct)
			}
		}
		near("reads", kinds[kRead], w.readPct)
		near("writes", kinds[kWrite], w.writePct)
		near("snap-reads", kinds[kSnapRead], 100-w.readPct-w.writePct)
		if w.hotCold {
			near("hot accesses", hot, 90)
		} else {
			near("accesses to the first tenth", hot, 10)
		}
	}
}

// Every shard holds the same share of the working set, of every connection
// and of the hot set; connections never share a sector; sid numbers a
// connection's sectors densely.
func TestLayoutEqualSharesDisjointConns(t *testing.T) {
	for _, g := range []geometry{daemonGeometry, miniGeometry} {
		for i := range workloads {
			w := workloads[i]
			if g == miniGeometry {
				w = mini(w)
			}
			lay := newLayout(&w, g, loadConns)
			if lay.wsPerShard <= 0 || lay.wsPerShard > lay.perShard {
				t.Fatalf("%s: working set %d of %d sectors per shard", w.name, lay.wsPerShard, lay.perShard)
			}
			owner := map[int64]int{}
			for conn := 0; conn < loadConns; conn++ {
				for _, n := range []int{w.opSectors, g.fillSectors} {
					units := lay.units(n)
					perShard := make([]int64, g.shards)
					hotPerShard := make([]int64, g.shards)
					sids := make([]bool, lay.connSectors())
					for u := int64(0); u < units; u++ {
						lba := lay.lba(conn, u, n)
						shard := lba / lay.perShard
						if last := (lba + int64(n) - 1) / lay.perShard; last != shard {
							t.Fatalf("%s: slot %d straddles shards %d and %d", w.name, u, shard, last)
						}
						if local := lba % lay.perShard; local+int64(n) > lay.wsPerShard {
							t.Fatalf("%s: slot %d ends at local sector %d, beyond the working set %d", w.name, u, local+int64(n), lay.wsPerShard)
						}
						perShard[shard]++
						if u < units/10 {
							hotPerShard[shard]++
						}
						for j := int64(0); j < int64(n); j++ {
							if prev, taken := owner[lba+j]; taken && prev != conn {
								t.Fatalf("%s: lba %d belongs to connections %d and %d", w.name, lba+j, prev, conn)
							}
							owner[lba+j] = conn
							sid := lay.sid(conn, lba+j)
							if sid < 0 || sid >= int64(len(sids)) || (sid != lay.sid(conn, lba)+j) {
								t.Fatalf("%s: sid(%d) = %d", w.name, lba+j, sid)
							}
							sids[sid] = true
						}
					}
					for s := 1; s < g.shards; s++ {
						if perShard[s] != perShard[0] {
							t.Errorf("%s: shard %d holds %d slots, shard 0 %d", w.name, s, perShard[s], perShard[0])
						}
						if d := hotPerShard[s] - hotPerShard[0]; d < -1 || d > 1 {
							t.Errorf("%s: shard %d holds %d hot slots, shard 0 %d", w.name, s, hotPerShard[s], hotPerShard[0])
						}
					}
					for sid, seen := range sids {
						if !seen {
							t.Fatalf("%s: no %d-sector slot covers sid %d", w.name, n, sid)
						}
					}
				}
			}
			if int64(len(owner)) != int64(g.shards)*lay.wsPerShard {
				t.Errorf("%s: connections cover %d sectors, working set is %d", w.name, len(owner), int64(g.shards)*lay.wsPerShard)
			}
		}
	}
}

func TestPayloadIsPureFunctionOfSectorAndVersion(t *testing.T) {
	a, b := make([]byte, 512), make([]byte, 512)
	fillSector(a, 42, 7)
	fillSector(b, 42, 7)
	if string(a) != string(b) || !checkSector(a, 42, 7) {
		t.Fatal("payload does not repeat")
	}
	if checkSector(a, 42, 8) || checkSector(a, 43, 7) {
		t.Fatal("payload does not tell versions or sectors apart")
	}
	a[511] ^= 1
	if checkSector(a, 42, 7) {
		t.Fatal("a flipped last byte passes the check")
	}
}

func TestWorkloadTable(t *testing.T) {
	if len(workloads) != 4 {
		t.Fatalf("%d workloads", len(workloads))
	}
	for i := range workloads {
		w := &workloads[i]
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
		if w.readPct+w.writePct > 100 || w.readPct <= 0 {
			t.Errorf("%s: every workload reads (read_p50_us is never 0); mix %d/%d", w.name, w.readPct, w.writePct)
		}
		if daemonGeometry.fillSectors%w.opSectors != 0 {
			t.Errorf("%s: op size %d does not divide the prefill's", w.name, w.opSectors)
		}
	}
}

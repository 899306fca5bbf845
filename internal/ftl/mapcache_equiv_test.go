package ftl

import (
	"fmt"
	"testing"

	"iosnap/internal/sim"
)

// Paged-map equivalence. A paged map whose cache holds the whole map is
// lockstep bit-exact with the in-RAM tree as long as nothing checkpoints:
// every translation page stays resident, the GTD stays empty, nothing is
// written to flash. A cache smaller than the working set trades that for
// RAM — it adds charged fault reads and write-back programs to the timeline,
// so the contract weakens to content equivalence plus a crash-safe on-flash
// map.

// wholeMapPages is a residency limit no test geometry reaches: no page is
// ever evicted or flushed.
const wholeMapPages = 1 << 20

func pagedEquivConfig(pages int) Config {
	cfg := equivConfig()
	cfg.MapCachePages = pages
	return cfg
}

func TestPagedMapEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			tree, err := New(pagedEquivConfig(0), nil)
			if err != nil {
				t.Fatal(err)
			}
			paged, err := New(pagedEquivConfig(wholeMapPages), nil)
			if err != nil {
				t.Fatal(err)
			}
			if paged.ActiveMap.Paged() == nil {
				t.Fatal("MapCachePages > 0 did not produce a paged map")
			}
			ss := tree.SectorSize()
			ops := genEquivOps(seed, tree.cfg.UserSectors, 300, 256)

			now := sim.Time(0)
			tbuf := make([]byte, 256*ss)
			pbuf := make([]byte, 256*ss)
			for i, op := range ops {
				var td, pd sim.Time
				var te, pe error
				switch op.kind {
				case 'w':
					data := runPattern(ss, op.lba, op.n, op.ver)
					td, te = tree.Write(now, op.lba, data)
					pd, pe = paged.Write(now, op.lba, data)
				case 'r':
					td, te = tree.Read(now, op.lba, tbuf[:op.n*ss])
					pd, pe = paged.Read(now, op.lba, pbuf[:op.n*ss])
					if string(tbuf[:op.n*ss]) != string(pbuf[:op.n*ss]) {
						t.Fatalf("op %d (%c lba=%d n=%d): payload mismatch", i, op.kind, op.lba, op.n)
					}
				case 't':
					td, te = tree.Trim(now, op.lba, int64(op.n))
					pd, pe = paged.Trim(now, op.lba, int64(op.n))
				}
				if (te == nil) != (pe == nil) {
					t.Fatalf("op %d (%c lba=%d n=%d): tree err %v, paged err %v", i, op.kind, op.lba, op.n, te, pe)
				}
				if td != pd {
					t.Fatalf("op %d (%c lba=%d n=%d): tree done %d, paged done %d (Δ %d)",
						i, op.kind, op.lba, op.n, td, pd, td.Sub(pd))
				}
				if td > now {
					now = td
				}
				tree.Scheduler().RunUntil(now)
				paged.Scheduler().RunUntil(now)
			}

			ts, ps := tree.Stats(), paged.Stats()
			if ps.MapPagesFlushed != 0 || ps.MapCacheEvictions != 0 {
				t.Fatalf("paged map larger than the device touched flash: %+v", ps)
			}
			// Host RAM layout and the cache's hit counters are the sanctioned
			// divergences; everything else must match bit for bit.
			ts.MapMemory, ps.MapMemory = 0, 0
			ts.MapMemoryResident, ps.MapMemoryResident = 0, 0
			ts.MapCacheHits, ps.MapCacheHits = 0, 0
			ts.MapCacheMisses, ps.MapCacheMisses = 0, 0
			if ts != ps {
				t.Fatalf("Stats diverge:\ntree:  %+v\npaged: %+v", ts, ps)
			}
			if tdev, pdev := tree.Device().Stats(), paged.Device().Stats(); tdev != pdev {
				t.Fatalf("device Stats diverge:\ntree:  %+v\npaged: %+v", tdev, pdev)
			}
			tdig := deviceDigest(t, tree.Device())
			pdig := deviceDigest(t, paged.Device())
			if tdig != pdig {
				t.Fatalf("device images diverge: %s", firstDigestDiff(tdig, pdig))
			}
		})
	}
}

// TestBoundedMapContentAndRecovery drives a bounded cache (far smaller than
// the working set) against a tree twin: contents must agree after every
// read, the cache must actually thrash (misses, evictions, write-backs),
// residency must stay a fraction of the full map, and a clean close must
// recover through the GTD checkpoint with all data intact.
func TestBoundedMapContentAndRecovery(t *testing.T) {
	const cachePages = 4
	// Write-back traffic needs headroom the lockstep geometry lacks.
	cfg := pagedEquivConfig(cachePages)
	cfg.Nand.Segments = 64
	cfg = DefaultConfig(cfg.Nand)
	cfg.GCWindow = 10 * sim.Millisecond
	cfg.MapCachePages = cachePages
	bounded, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := cfg
	tcfg.MapCachePages = 0
	tree, err := New(tcfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := bounded.SectorSize()
	ops := genEquivOps(17, bounded.cfg.UserSectors, 400, 128)

	var now, tnow sim.Time
	bbuf := make([]byte, 128*ss)
	tbuf := make([]byte, 128*ss)
	for i, op := range ops {
		var be, te error
		var bd, td sim.Time
		switch op.kind {
		case 'w':
			data := runPattern(ss, op.lba, op.n, op.ver)
			bd, be = bounded.Write(now, op.lba, data)
			td, te = tree.Write(tnow, op.lba, data)
		case 'r':
			bd, be = bounded.Read(now, op.lba, bbuf[:op.n*ss])
			td, te = tree.Read(tnow, op.lba, tbuf[:op.n*ss])
			if be == nil && te == nil && string(bbuf[:op.n*ss]) != string(tbuf[:op.n*ss]) {
				t.Fatalf("op %d (r lba=%d n=%d): content mismatch vs tree twin", i, op.lba, op.n)
			}
		case 't':
			bd, be = bounded.Trim(now, op.lba, int64(op.n))
			td, te = tree.Trim(tnow, op.lba, int64(op.n))
		}
		if (be == nil) != (te == nil) {
			t.Fatalf("op %d (%c lba=%d n=%d): bounded err %v, tree err %v", i, op.kind, op.lba, op.n, be, te)
		}
		if bd > now {
			now = bd
		}
		if td > tnow {
			tnow = td
		}
		bounded.Scheduler().RunUntil(now)
		tree.Scheduler().RunUntil(tnow)
	}

	st := bounded.Stats()
	if st.MapCacheMisses == 0 || st.MapCacheEvictions == 0 || st.MapPagesFlushed == 0 {
		t.Fatalf("bounded cache did not thrash: %+v", st)
	}
	if st.MapCacheHits == 0 {
		t.Fatalf("bounded cache never hit: %+v", st)
	}
	if st.MapMemoryResident >= st.MapMemory {
		t.Fatalf("resident %d not below total %d", st.MapMemoryResident, st.MapMemory)
	}

	// Snapshot expected contents from the tree twin, close, recover, diff.
	mapped := bounded.MappedSectors()
	now, err = bounded.Close(now)
	if err != nil {
		t.Fatal(err)
	}
	rec, now, err := Recover(cfg, bounded.Device(), sim.NewScheduler(), now)
	if err != nil {
		t.Fatal(err)
	}
	rs := rec.Stats()
	if !rs.RecoveryTailBounded || rs.RecoveryFallbacks != 0 {
		t.Fatalf("clean close fell back to full scan: %+v", rs)
	}
	if got := rec.MappedSectors(); got != mapped {
		t.Fatalf("recovered %d mapped sectors, want %d", got, mapped)
	}
	for lba := int64(0); lba < rec.cfg.UserSectors; lba += 64 {
		n := 64
		if lba+int64(n) > rec.cfg.UserSectors {
			n = int(rec.cfg.UserSectors - lba)
		}
		var bd, td sim.Time
		bd, err = rec.Read(now, lba, bbuf[:n*ss])
		if err != nil {
			t.Fatalf("post-recovery read lba %d: %v", lba, err)
		}
		td, err = tree.Read(tnow, lba, tbuf[:n*ss])
		if err != nil {
			t.Fatalf("tree read lba %d: %v", lba, err)
		}
		if string(bbuf[:n*ss]) != string(tbuf[:n*ss]) {
			t.Fatalf("post-recovery content mismatch at lba %d", lba)
		}
		if bd > now {
			now = bd
		}
		if td > tnow {
			tnow = td
		}
		rec.Scheduler().RunUntil(now)
		tree.Scheduler().RunUntil(tnow)
	}
}

package iosnap

import (
	"fmt"
	"testing"

	"iosnap/internal/mapcache"
	"iosnap/internal/sim"
)

// A paged map whose cache holds the whole map is lockstep bit-exact with the
// in-RAM tree as long as nothing checkpoints: every page is resident, the
// GTD stays empty, nothing is ever written to flash, so virtual times,
// Stats, and the device image must all match. Host RAM layout
// (MapMemory/MapMemoryResident) and the cache's own hit counters are the
// only sanctioned divergences.

// wholeMapPages is a residency limit no test geometry reaches: no page is
// ever evicted or flushed.
const wholeMapPages = 1 << 20

func pagedEquivConfig(pages int) Config {
	cfg := equivConfig()
	cfg.MapCachePages = pages
	return cfg
}

func TestPagedMapEquivalenceWithSnapshots(t *testing.T) {
	for _, seed := range []int64{3, 11, 99} {
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
			if _, ok := paged.ActiveMap.(*mapcache.Cache); !ok {
				t.Fatal("MapCachePages > 0 did not produce a paged map")
			}
			ss := tree.SectorSize()
			ops := genEquivOps(seed, tree.cfg.UserSectors, 250, 256)

			now := sim.Time(0)
			tbuf := make([]byte, 256*ss)
			pbuf := make([]byte, 256*ss)
			var liveSnaps []SnapshotID
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
				case 's':
					var ts, ps *Snapshot
					ts, td, te = tree.CreateSnapshot(now)
					ps, pd, pe = paged.CreateSnapshot(now)
					if (ts == nil) != (ps == nil) {
						t.Fatalf("op %d: one FTL snapshotted, the other did not", i)
					}
					if ts != nil {
						if ts.ID != ps.ID {
							t.Fatalf("op %d: snapshot IDs diverge: %d vs %d", i, ts.ID, ps.ID)
						}
						liveSnaps = append(liveSnaps, ts.ID)
					}
				case 'd':
					if len(liveSnaps) == 0 {
						continue
					}
					id := liveSnaps[0]
					liveSnaps = liveSnaps[1:]
					td, te = tree.DeleteSnapshot(now, id)
					pd, pe = paged.DeleteSnapshot(now, id)
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
			if err := paged.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

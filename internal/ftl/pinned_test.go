package ftl

import (
	"bytes"
	"fmt"
	"testing"

	"iosnap/internal/faultinject"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// TestPinnedSeededRun is the vanilla FTL's refactoring oracle: one seeded
// write/trim/read mix under transient program and read faults (the media
// tests' fault classes, fired probabilistically), with periodic checkpoints,
// through Close (or a crash) and Recover — pinned to committed constants. The device
// digest covers every byte on flash, so a change that moves a constant
// changed on-flash behaviour; update one only with the reason in the commit
// that moves it.
func TestPinnedSeededRun(t *testing.T) {
	cases := []struct {
		name          string
		mapCachePages int
		starveGC      bool // tiny quanta over a long window: the paced cleaner starves and writers force cleans
		crash         bool // no Close: recovery takes whatever the last periodic checkpoint left
		want          string
	}{
		{"tree", 0, false, false,
			"fired=15 digest=4b101120c75a5ad4 closed=57372789 gcRuns=534 gcCopied=1544 gcForced=0 ckpts=50 ckptChunks=489 retries=15 mediaFailures=0 retired=0 mapFlushed=0 | recovered: mapped=248 at=57388369 tailBounded=true fallbacks=0 segsScanned=1 free=3"},
		{"bounded-paged", 2, false, false,
			"fired=15 digest=1fc9ab0c202c43f8 closed=81590674 gcRuns=709 gcCopied=2737 gcForced=0 ckpts=70 ckptChunks=139 retries=15 mediaFailures=0 retired=0 mapFlushed=1952 | recovered: mapped=248 at=81604644 tailBounded=true fallbacks=0 segsScanned=1 free=3"},
		{"forced-clean", 0, true, false,
			"fired=15 digest=e135a4a82a74d2dd closed=5005139093 gcRuns=860 gcCopied=3620 gcForced=825 ckpts=64 ckptChunks=629 retries=15 mediaFailures=0 retired=0 mapFlushed=0 | recovered: mapped=248 at=5005154673 tailBounded=true fallbacks=0 segsScanned=1 free=2"},
		{"crash/tree", 0, false, true,
			"fired=15 digest=a1857de85993407e closed=57272899 gcRuns=533 gcCopied=1542 gcForced=0 ckpts=49 ckptChunks=479 retries=15 mediaFailures=0 retired=0 mapFlushed=0 | recovered: mapped=259 at=57453669 tailBounded=false fallbacks=1 segsScanned=32 free=2"},
		{"crash/bounded-paged", 2, false, true,
			"fired=15 digest=690577c240a4c39f closed=81510219 gcRuns=708 gcCopied=2735 gcForced=0 ckpts=69 ckptChunks=137 retries=15 mediaFailures=0 retired=0 mapFlushed=1950 | recovered: mapped=259 at=81671379 tailBounded=false fallbacks=1 segsScanned=32 free=2"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nc := testConfig().Nand
			nc.Segments = 32
			cfg := DefaultConfig(nc)
			cfg.GCWindow = 10 * sim.Millisecond
			if tc.starveGC {
				cfg.GCWindow, cfg.GCChunk = 10*sim.Second, 2
			}
			cfg.MapCachePages = tc.mapCachePages
			cfg.CheckpointInterval = 1 * sim.Millisecond
			f, err := New(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			plan := faultinject.NewPlan(31,
				faultinject.Rule{Name: "transient-read", Kind: faultinject.KindTransient,
					Op: nand.OpRead, Seg: faultinject.AnySeg, Prob: 0.02, Times: 1},
				faultinject.Rule{Name: "transient-program", Kind: faultinject.KindTransient,
					Op: nand.OpProgram, Seg: faultinject.AnySeg, Prob: 0.02, Times: 1})
			plan.Arm(f.Device())

			const space = 300
			ss := f.SectorSize()
			rng := sim.NewRNG(19)
			model := make(map[int64]byte)
			now := sim.Time(0)
			buf := make([]byte, 8*ss)
			for step := 0; step < 2500; step++ {
				f.Scheduler().RunUntil(now)
				lba := rng.Int63n(space - 8)
				n := 1 + rng.Intn(8)
				switch op := rng.Intn(100); {
				case op < 60:
					v := byte(step%251 + 1)
					data := make([]byte, 0, n*ss)
					for i := 0; i < n; i++ {
						data = append(data, sectorPattern(ss, lba+int64(i), v)...)
					}
					done, err := f.Write(now, lba, data)
					if err != nil {
						t.Fatalf("step %d write: %v", step, err)
					}
					for i := 0; i < n; i++ {
						model[lba+int64(i)] = v
					}
					now = done
				case op < 70:
					done, err := f.Trim(now, lba, int64(n))
					if err != nil {
						t.Fatalf("step %d trim: %v", step, err)
					}
					for i := 0; i < n; i++ {
						delete(model, lba+int64(i))
					}
					now = done
				default:
					done, err := f.Read(now, lba, buf[:n*ss])
					if err != nil {
						t.Fatalf("step %d read: %v", step, err)
					}
					for i := 0; i < n; i++ {
						want := make([]byte, ss)
						if v, ok := model[lba+int64(i)]; ok {
							want = sectorPattern(ss, lba+int64(i), v)
						}
						if !bytes.Equal(buf[i*ss:(i+1)*ss], want) {
							t.Fatalf("step %d: LBA %d content mismatch", step, lba+int64(i))
						}
					}
					now = done
				}
			}
			closed := now
			if !tc.crash {
				now = f.Scheduler().Drain(now)
				if closed, err = f.Close(now); err != nil {
					t.Fatal(err)
				}
			}
			plan.Disarm(f.Device())
			st := f.Stats()
			closeDigest := f.Device().StateDigest()

			f2, rnow, err := Recover(cfg, f.Device(), nil, closed)
			if err != nil {
				t.Fatal(err)
			}
			for lba := int64(0); lba < space; lba++ {
				if _, err := f2.Read(rnow, lba, buf[:ss]); err != nil {
					t.Fatalf("recovered read %d: %v", lba, err)
				}
				want := make([]byte, ss)
				if v, ok := model[lba]; ok {
					want = sectorPattern(ss, lba, v)
				} else if tc.crash {
					continue // trims are not logged: a crash may resurrect a trimmed sector
				}
				if !bytes.Equal(buf[:ss], want) {
					t.Fatalf("recovered LBA %d content mismatch", lba)
				}
			}
			rs := f2.Stats()
			got := fmt.Sprintf("fired=%d digest=%016x closed=%d gcRuns=%d gcCopied=%d gcForced=%d ckpts=%d ckptChunks=%d retries=%d mediaFailures=%d retired=%d mapFlushed=%d | recovered: mapped=%d at=%d tailBounded=%v fallbacks=%d segsScanned=%d free=%d",
				len(plan.Fired()), closeDigest, closed,
				st.GCRuns, st.GCCopied, st.GCForced, st.Checkpoints, st.CheckpointChunks,
				st.Retries, st.MediaFailures, st.SegmentsRetired, st.MapPagesFlushed,
				f2.MappedSectors(), rnow, rs.RecoveryTailBounded, rs.RecoveryFallbacks,
				rs.RecoverySegsScanned, f2.FreeSegments())
			if got != tc.want {
				t.Errorf("pinned oracle moved:\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
}

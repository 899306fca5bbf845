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
// tests' fault classes, fired probabilistically), run the way the
// experiments drive this FTL — tree map, drained, never closed — and pinned
// to committed constants. The device digest covers every byte on flash, so a
// change that moves a constant changed on-flash behaviour; update one only
// with the reason in the commit that moves it.
func TestPinnedSeededRun(t *testing.T) {
	cases := []struct {
		name     string
		starveGC bool // tiny quanta over a long window: the paced cleaner starves and writers force cleans
		want     string
	}{
		{"tree", false,
			"fired=15 digest=6689f643a4f9f443 drained=52367521 gcRuns=490 gcCopied=1327 gcForced=0 retries=15 mediaFailures=0 retired=0 mapped=248 free=3"},
		{"forced-clean", true,
			"fired=15 digest=71f592c3db4ad21d drained=5005918967 gcRuns=504 gcCopied=1535 gcForced=461 retries=15 mediaFailures=0 retired=0 mapped=248 free=4"},
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
			// check reads n sectors at lba and compares them with the model.
			check := func(lba int64, n int) {
				t.Helper()
				done, err := f.Read(now, lba, buf[:n*ss])
				if err != nil {
					t.Fatalf("read %d+%d: %v", lba, n, err)
				}
				for i := 0; i < n; i++ {
					want := make([]byte, ss)
					if v, ok := model[lba+int64(i)]; ok {
						want = sectorPattern(ss, lba+int64(i), v)
					}
					if !bytes.Equal(buf[i*ss:(i+1)*ss], want) {
						t.Fatalf("LBA %d content mismatch", lba+int64(i))
					}
				}
				now = done
			}
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
					check(lba, n)
				}
			}
			now = f.Scheduler().Drain(now)
			drained := now
			plan.Disarm(f.Device())
			for lba := int64(0); lba < space; lba++ {
				check(lba, 1)
			}
			// The digest counts page reads, so it is taken after the read-back.
			st := f.Stats()
			got := fmt.Sprintf("fired=%d digest=%016x drained=%d gcRuns=%d gcCopied=%d gcForced=%d retries=%d mediaFailures=%d retired=%d mapped=%d free=%d",
				len(plan.Fired()), f.Device().StateDigest(), drained,
				st.GCRuns, st.GCCopied, st.GCForced, st.Retries, st.MediaFailures, st.SegmentsRetired,
				f.MappedSectors(), f.FreeSegments())
			if got != tc.want {
				t.Errorf("pinned oracle moved:\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
}

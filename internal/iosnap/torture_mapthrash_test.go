package iosnap

import (
	"fmt"
	"testing"

	"iosnap/internal/faultinject"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// MapThrash torture: the bounded translation-page cache under the full
// randomized storm. The geometry is chosen so the working set spans many
// translation pages while the cache holds almost none of them — every band
// of the mix (writes dirtying pages, trims, snapshot churn moving the log
// head, forced cleans copy-forwarding map pages, reads faulting pages back
// in) lands on a cache that is permanently full.

// mapThrashConfig: 512B sectors (64 map slots per translation page), a
// 2-page cache, and enough segments that map write-back traffic does not
// starve the data path.
func mapThrashConfig() Config {
	nc := testConfig().Nand
	nc.Segments = 64
	cfg := DefaultConfig(nc)
	cfg.GCWindow = 10 * sim.Millisecond
	cfg.BitmapPageBits = 64
	cfg.CoWPageCost = 10 * sim.Microsecond
	cfg.MapCachePages = 2
	return cfg
}

// mapThrashSpace spans ~7 translation pages — more than three times the
// 2-page cache, so faults and evictions never stop.
const mapThrashSpace = 400

func TestTortureMapThrash(t *testing.T) {
	for _, seed := range []uint64{1, 7, 1234} {
		rep, err := Torture(mapThrashConfig(), TortureOptions{
			Seed: seed, Steps: 900, Space: mapThrashSpace, Mix: MixMapThrash,
		})
		if err != nil {
			t.Fatalf("seed %d: %v (%s)", seed, err, rep)
		}
		if rep.Checks == 0 {
			t.Fatalf("seed %d: no invariant checks ran", seed)
		}
		if rep.OpErrors != 0 {
			t.Fatalf("seed %d: %d op errors without any fault plan (%s)", seed, rep.OpErrors, rep)
		}
		st := rep.FinalStats
		if st.MapCacheMisses == 0 || st.MapCacheEvictions == 0 || st.MapPagesFlushed == 0 {
			t.Fatalf("seed %d: cache never thrashed: %+v", seed, st)
		}
		if st.MapCacheHits == 0 {
			t.Fatalf("seed %d: cache never hit: %+v", seed, st)
		}
		if st.MapMemoryResident >= st.MapMemory {
			t.Fatalf("seed %d: resident %d not below full-map %d", seed, st.MapMemoryResident, st.MapMemory)
		}
	}
}

// mapCrashPlan cuts power on the Nth NAND read. With a 2-page cache over a
// 7-page working set, reads are dominated by translation-page faults, so
// the crash lands mid-thrash — likely with dirty pages in the cache whose
// write-back never happened. Recovery must rebuild the on-flash map anyway.
func mapCrashPlan(after int64) *faultinject.Plan {
	return faultinject.NewPlan(0, faultinject.Rule{
		Kind: faultinject.KindCrash, Op: nand.OpRead, Seg: faultinject.AnySeg, AfterN: after,
	})
}

// TestTortureMapThrashCrashes: power loss mid-thrash, then a transient +
// corrupt-data read plan for the next cycle — injected read faults now hit
// the map-fault path itself, and the retry budget must absorb them without
// the model ever seeing wrong content.
func TestTortureMapThrashCrashes(t *testing.T) {
	rep, err := Torture(mapThrashConfig(), TortureOptions{
		Seed: 9, Steps: 900, Space: mapThrashSpace, Mix: MixMapThrash,
		Plan: mapCrashPlan(400),
		Replan: func(cycle int) *faultinject.Plan {
			if cycle == 1 {
				return replChurnPlan(303)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("%v (%s)", err, rep)
	}
	if rep.Crashes < 1 || rep.Recoveries != rep.Crashes {
		t.Fatalf("wanted a clean crash/recover cycle, got %d/%d (%s)", rep.Crashes, rep.Recoveries, rep)
	}
	if len(rep.Fired) == 0 {
		t.Fatalf("no faults fired; storm exercised nothing (%s)", rep)
	}
	// FinalStats counters reset at recovery; the post-crash tail must still
	// be faulting translation pages back in.
	if rep.FinalStats.MapCacheMisses == 0 {
		t.Fatalf("recovered run never faulted a map page (%s)", rep)
	}
}

// TestTortureMapThrashDeterministic: map-page faults, write-backs, and GC
// copy-forwards all add device traffic — none of it may depend on Go map
// order, or seeded fault rules would fire at run-dependent addresses.
func TestTortureMapThrashDeterministic(t *testing.T) {
	run := func() string {
		rep, err := Torture(mapThrashConfig(), TortureOptions{
			Seed: 23, Steps: 600, Space: mapThrashSpace, Mix: MixMapThrash,
			Plan: replChurnPlan(11),
		})
		if err != nil {
			t.Fatalf("%v (%s)", err, rep)
		}
		st := rep.FinalStats
		return fmt.Sprintf("%s fired=%v hits=%d misses=%d evict=%d flush=%d",
			rep, rep.Fired, st.MapCacheHits, st.MapCacheMisses,
			st.MapCacheEvictions, st.MapPagesFlushed)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seeds, different runs:\n%s\n%s", a, b)
	}
}

// TestTortureTBClassGeometry is the acceptance run: a 1 TB device (4K
// pages, 1024 pages/segment, 256Ki lazily-materialized segments) whose full
// in-RAM map would dwarf the FTL's RAM budget. The paged map mounts it,
// sustains the MapThrash storm over a working set spanning ~50 translation
// pages with a 4-page cache, and the resident map RAM — asserted via the
// resident-bytes stat — stays at or below 1/8 of the full in-RAM map.
func TestTortureTBClassGeometry(t *testing.T) {
	nc := nand.DefaultConfig()
	nc.SectorSize = 4096
	nc.PagesPerSegment = 1024
	nc.Segments = 1 << 18
	nc.StoreData = true
	cfg := DefaultConfig(nc)
	cfg.SelectiveScan = true // full-log activation scans don't scale to 256Ki segments
	cfg.MapCachePages = 4

	rep, err := Torture(cfg, TortureOptions{
		Seed: 5, Steps: 400, Space: 25600, CheckEvery: 200, Mix: MixMapThrash,
	})
	if err != nil {
		t.Fatalf("%v (%s)", err, rep)
	}
	if rep.Checks == 0 {
		t.Fatalf("no invariant checks ran (%s)", rep)
	}
	if rep.OpErrors != 0 {
		t.Fatalf("%d op errors without any fault plan (%s)", rep.OpErrors, rep)
	}
	st := rep.FinalStats
	if st.MapCacheMisses == 0 || st.MapCacheHits == 0 {
		t.Fatalf("paged map idle on TB-class geometry: %+v", st)
	}
	if st.MapMemoryResident*8 > st.MapMemory {
		t.Fatalf("resident map RAM %d B exceeds 1/8 of the full map's %d B",
			st.MapMemoryResident, st.MapMemory)
	}
	t.Logf("TB-class: %s resident=%dB full=%dB hits=%d misses=%d evict=%d flush=%d",
		rep, st.MapMemoryResident, st.MapMemory, st.MapCacheHits,
		st.MapCacheMisses, st.MapCacheEvictions, st.MapPagesFlushed)
}

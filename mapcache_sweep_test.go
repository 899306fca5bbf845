package main

import (
	"fmt"
	"testing"

	"iosnap/internal/iosnap"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
	"iosnap/internal/workload"
)

// TestMapCacheSweep traces the paged mapping table's hit-rate /
// foreground-latency tradeoff on a TB-class device (DESIGN.md §13). The
// full in-RAM map for such a device would not fit the paper's FTL RAM
// budget; the paged map keeps a bounded translation-page cache instead,
// and the sweep moves that bound under a hot/cold read mix whose locality
// knobs (workload.HotCold) map directly onto translation-page reuse. Per
// variant it measures the cache hit rate and the mean foreground virtual
// latency. Both are deterministic virtual quantities, so the test pins
// them to the digit, and holds the gate they were recorded for: the
// largest cache reaches a 90% hit rate within 2x of the in-RAM map's mean
// latency.

const (
	// 1 TB device: 4K pages, 1024 pages/segment, 256Ki segments. Segments
	// materialize lazily, so only the touched span costs host RAM.
	mapBenchSegments = 1 << 18
	// The active span: 4 GB of LBA space, every 16th sector mapped. Each
	// 16-sector read then lands on exactly one programmed page, so the
	// in-RAM baseline pays one NAND read per op and a translation-page
	// miss shows up as the one extra read it really is. The span covers
	// 2048 translation pages (512 slots each at 4K sectors) while host
	// RAM holds only 64K payloads.
	mapBenchSpan   = int64(1) << 20
	mapBenchStride = int64(16)
	mapBenchHot    = 0.95 // HotFrac: share of ops on the hot set
	mapBenchSpanH  = 0.1  // HotSpan: hot set = first 10% of the span
	mapBenchOps    = 100_000
)

func mapBenchConfig(cachePages int) iosnap.Config {
	nc := nand.DefaultConfig()
	nc.SectorSize = 4096
	nc.PagesPerSegment = 1024
	nc.Segments = mapBenchSegments
	nc.StoreData = true
	cfg := iosnap.DefaultConfig(nc)
	cfg.MapCachePages = cachePages
	return cfg
}

// mapCacheVariant runs the sweep's workload at one cache size (0 = the
// in-RAM map) and returns the hit rate of the measured reads and their
// mean virtual latency in µs.
func mapCacheVariant(t *testing.T, cachePages int) (hitRate, meanLatUs float64) {
	f, err := iosnap.New(mapBenchConfig(cachePages), nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := f.SectorSize()
	buf := make([]byte, ss)
	now := sim.Time(0)
	for lba := int64(0); lba < mapBenchSpan; lba += mapBenchStride {
		f.Scheduler().RunUntil(now)
		d, err := f.Write(now, lba, buf)
		if err != nil {
			t.Fatal(err)
		}
		now = d
	}
	preHits, preMisses := f.Stats().MapCacheHits, f.Stats().MapCacheMisses

	spec := workload.Spec{
		Kind: workload.Read, Pattern: workload.HotCold,
		BlockSize: int(mapBenchStride) * ss, Threads: 1, QueueDepth: 1,
		MaxOps: mapBenchOps, RangeHi: mapBenchSpan,
		Seed: 42, HotFrac: mapBenchHot, HotSpan: mapBenchSpanH,
	}
	res, _, err := workload.Run(f, now, spec, workload.Options{Scheduler: f.Scheduler()})
	if err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	hits := st.MapCacheHits - preHits
	misses := st.MapCacheMisses - preMisses
	hitRate = 1.0 // in-RAM map: every lookup free
	if total := hits + misses; total > 0 {
		hitRate = float64(hits) / float64(total)
	}
	return hitRate, res.MeanLat.Microseconds()
}

// Variants: the in-RAM baseline plus three cache sizes. The hot set spans
// ~205 translation pages of the span's 2048, so 128 thrashes, 512 holds
// the hot set with cold headroom, and 2048 holds the whole span — every
// lookup hits, at the in-RAM map's latency.
func TestMapCacheSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("four 100k-op runs on a TB-class geometry; skipped in -short")
	}
	_, inram := mapCacheVariant(t, 0)
	if got := fmt.Sprintf("%.2f", inram); got != "28.43" {
		t.Errorf("in-RAM map: %s virtual us/op, want 28.43", got)
	}
	for _, want := range []struct {
		pages    int
		hit, lat string
	}{
		{128, "0.5579", "40.91"},
		{512, "0.9566", "29.86"},
		{2048, "1.0000", "28.43"},
	} {
		hit, lat := mapCacheVariant(t, want.pages)
		if got := fmt.Sprintf("%.4f", hit); got != want.hit {
			t.Errorf("%d pages: hit rate %s, want %s", want.pages, got, want.hit)
		}
		if got := fmt.Sprintf("%.2f", lat); got != want.lat {
			t.Errorf("%d pages: %s virtual us/op, want %s", want.pages, got, want.lat)
		}
		if want.pages == 2048 && (hit < 0.9 || lat > 2*inram) {
			t.Errorf("largest cache: hit rate %.4f at %.2f us/op against %.2f in RAM; want >= 0.9 within 2x", hit, lat, inram)
		}
	}
}

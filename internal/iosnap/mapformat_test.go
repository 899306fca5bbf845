package iosnap

import (
	"slices"
	"testing"

	"iosnap/internal/codec"
	"iosnap/internal/header"
	"iosnap/internal/logcore"
	"iosnap/internal/mapcache"
	"iosnap/internal/model"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// Translation entries are 4-byte page addresses, 64 per page at 512-byte
// sectors. A checkpoint whose GTD section names another geometry — 32
// eight-byte slots per page, as entries once were — mounts through the full
// scan once, and its next checkpoint is in the current geometry.

// pagedFormatConfig is the torture geometry with a two-page map cache.
func pagedFormatConfig() Config {
	cfg := tortureConfig()
	cfg.MapCachePages = 2
	return cfg
}

// writePagedModel writes a seeded mix over 200 LBAs — four translation
// pages through a two-page cache — and returns the image written.
func writePagedModel(t *testing.T, f *FTL) (*model.Image, sim.Time) {
	t.Helper()
	im := model.NewImage()
	rng := sim.NewRNG(17)
	now := sim.Time(0)
	for i := 0; i < 300; i++ {
		lba := rng.Int63n(200)
		v := uint64(i + 1)
		done, err := f.Write(now, lba, model.Sectors(f.SectorSize(), lba, 1, v))
		if err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		im.Write(lba, v)
		now = f.Sched.Drain(done)
	}
	return im, now
}

// checkPagedModel reads every LBA back, unwritten ones as zeros, and audits
// invariants.
func checkPagedModel(t *testing.T, f *FTL, now sim.Time, im *model.Image) {
	t.Helper()
	buf := make([]byte, f.SectorSize())
	for lba := int64(0); lba < 200; lba++ {
		if _, err := f.Read(now, lba, buf); err != nil {
			t.Fatalf("read lba %d: %v", lba, err)
		}
		if !model.Check(buf, lba, im.Version(lba)) {
			t.Fatalf("lba %d reads back wrong", lba)
		}
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// rewriteMapSection replaces the closed device's anchored checkpoint with
// one whose GTD section is rewritten, programming the new chunks into a free
// segment. With eightByte it writes the same map with 8-byte translation
// entries: every translation page re-encoded as 32 eight-byte slots,
// programmed beside the chunks, and a GTD section naming them with 32 slots
// per page. Without, it re-programs the stream as it is (the control: the
// rewrite itself must not cost the tail-bounded mount).
func rewriteMapSection(t *testing.T, f *FTL, now sim.Time, eightByte bool) {
	t.Helper()
	ss := f.SectorSize()
	secs := anchoredSections(t, f, now)
	gi := slices.IndexFunc(secs, func(s logcore.Section) bool { return s.Kind == ckptSecGTD })
	if gi < 0 {
		t.Fatal("anchored stream has no GTD section")
	}
	program := freeSegmentWriter(t, f, now)
	if eightByte {
		const slotsPer = 32
		pages := make(map[uint64][]uint64)
		var order []uint64
		f.ActiveMap.All(func(lba, addr uint64) bool {
			idx := lba / slotsPer
			if pages[idx] == nil {
				pages[idx] = make([]uint64, slotsPer)
				for i := range pages[idx] {
					pages[idx][i] = ^uint64(0)
				}
				order = append(order, idx)
			}
			pages[idx][lba%slotsPer] = addr
			return true
		})
		var w codec.Writer
		w.U32(slotsPer)
		w.U32(uint32(len(order)))
		for _, idx := range order {
			page := codec.Writer{B: make([]byte, 0, ss)}
			start := page.Begin(codec.MapPage)
			page.U64(idx)
			page.U32(slotsPer)
			page.U64s(pages[idx])
			page.End(start)
			payload := append(page.B, make([]byte, ss-len(page.B))...)
			live := 0
			for _, v := range pages[idx] {
				if v != ^uint64(0) {
					live++
				}
			}
			w.U64(idx)
			w.U64(uint64(program(payload, header.Header{Type: header.TypeMapPage, LBA: idx})))
			w.U32(uint32(live))
		}
		secs[gi].Data = w.B
	}
	dev := f.Device()
	dev.SetAnchor(&nand.Anchor{ID: dev.Anchor().ID, Addrs: programStream(t, f, program, header.TypeCheckpoint, secs)})
}

// TestMapFaultEvictFlushAllocatesNothing: with a one-page cache, every
// write to the other of two translation pages faults it in (one charged
// batch read, decoded into the slot array of the page evicted before),
// evicts the dirty page it displaces and flushes that through the log head
// (encoded into the log's own sector buffer). In steady state the whole
// write, that cycle included, allocates nothing. Steady state means a
// device past its first pass, whose pages own their payload buffers, and a
// head segment long enough that no new segment is tracked while measuring.
func TestMapFaultEvictFlushAllocatesNothing(t *testing.T) {
	nc := testConfig().Nand
	nc.PagesPerSegment, nc.Segments = 256, 8
	cfg := DefaultConfig(nc)
	cfg.MapCachePages = 1
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := f.SectorSize()
	dev := f.Device()
	for seg := 0; seg < nc.Segments; seg++ {
		if dev.ProgrammedInSegment(seg) != 0 {
			t.Fatalf("segment %d programmed before the first write", seg)
		}
		for i := 0; i < nc.PagesPerSegment; i++ {
			if _, err := dev.ProgramPage(0, dev.Addr(seg, i), make([]byte, ss), nil); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := dev.EraseSegment(0, seg); err != nil {
			t.Fatal(err)
		}
	}
	k := int64(mapcache.SlotsFor(ss))
	lbas := [2]int64{0, k}
	data := [2][]byte{sectorPattern(ss, 0, 1), sectorPattern(ss, k, 1)}
	now := sim.Time(0)
	for i := 0; i < 4; i++ { // both pages on flash, one resident
		if now, err = f.Write(now, lbas[i%2], data[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	before := f.Stats()
	i := 0
	// 4 + 2 × 51 page programs: all inside the head segment.
	allocs := testing.AllocsPerRun(50, func() {
		if now, err = f.Write(now, lbas[i%2], data[i%2]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	st := f.Stats()
	if cycles := int64(i); st.MapCacheMisses-before.MapCacheMisses != cycles ||
		st.MapCacheEvictions-before.MapCacheEvictions != cycles || st.MapPagesFlushed-before.MapPagesFlushed != cycles {
		t.Fatalf("%d writes: %d faults, %d evictions, %d flushes; want one each per write", cycles,
			st.MapCacheMisses-before.MapCacheMisses, st.MapCacheEvictions-before.MapCacheEvictions,
			st.MapPagesFlushed-before.MapPagesFlushed)
	}
	if allocs != 0 {
		t.Fatalf("a fault -> evict -> flush write allocated %.1f times", allocs)
	}
}

// TestEightByteCheckpointMountsByFullScan is the old-image path: the GTD
// refuses the mount's tail-bounded path, the full scan rebuilds every
// sector from data headers, and the checkpoint written at Close mounts
// tail-bounded.
func TestEightByteCheckpointMountsByFullScan(t *testing.T) {
	for _, eightByte := range []bool{false, true} {
		cfg := pagedFormatConfig()
		f, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		im, now := writePagedModel(t, f)
		if now, err = f.Close(now); err != nil {
			t.Fatal(err)
		}
		rewriteMapSection(t, f, now, eightByte)

		r, now, err := Recover(cfg, f.Device(), nil, now)
		if err != nil {
			t.Fatalf("eightByte=%v: %v", eightByte, err)
		}
		wantFallbacks := int64(0)
		if eightByte {
			wantFallbacks = 1
		}
		if st := r.Stats(); st.RecoveryTailBounded == eightByte || st.RecoveryFallbacks != wantFallbacks {
			t.Fatalf("eightByte=%v: tail-bounded %v with %d fallbacks", eightByte, st.RecoveryTailBounded, st.RecoveryFallbacks)
		}
		checkPagedModel(t, r, now, im)
		if now, err = r.Close(now); err != nil {
			t.Fatal(err)
		}
		r2, now, err := Recover(cfg, r.Device(), nil, now)
		if err != nil {
			t.Fatal(err)
		}
		if st := r2.Stats(); !st.RecoveryTailBounded || st.RecoveryFallbacks != 0 {
			t.Fatalf("eightByte=%v: remount after Close: tail-bounded %v with %d fallbacks", eightByte, st.RecoveryTailBounded, st.RecoveryFallbacks)
		}
		checkPagedModel(t, r2, now, im)
	}
}

package logcore

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"iosnap/internal/bitmap"
	"iosnap/internal/header"
	"iosnap/internal/model"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// flatPolicy is the smallest Policy the engine runs under: one flat validity
// bitmap re-tested at copy time, the log's greedy victim, and a checkpoint
// with nothing in it unless a test sets secs. It records every run
// RunCommitted sees so tests can check what the engine hands a policy.
// newFlatWith sets ReserveSegments to 1, below the writers' floor
// (DataReserve), so no background clean starts unless a test raises it or
// calls ForceClean.
type flatPolicy struct {
	Log
	stats Stats
	valid *bitmap.Bitmap
	runs  [][]nand.PageAddr
	secs  []Section // the checkpoint's one stream, if any
}

func newFlat(t *testing.T) *flatPolicy { return newFlatWith(t, func(*Config) {}) }

// newFlatWith is newFlat with tweak applied to the default configuration.
func newFlatWith(t *testing.T, tweak func(*Config)) *flatPolicy {
	t.Helper()
	nc := nand.DefaultConfig()
	nc.SectorSize = 512
	nc.PagesPerSegment = 8
	nc.Segments = 8
	nc.Channels = 2
	nc.StoreData = true
	nc.ReadLatency = 2 * sim.Microsecond
	nc.ProgramLatency = 4 * sim.Microsecond
	nc.EraseLatency = 50 * sim.Microsecond
	cfg := DefaultConfig(nc)
	cfg.ReserveSegments = 1
	tweak(&cfg)
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	p := &flatPolicy{valid: bitmap.New(cfg.Nand.TotalPages())}
	p.Init(cfg, nand.New(cfg.Nand), sim.NewScheduler(), p, &p.stats)
	p.Format()
	return p
}

func (p *flatPolicy) flip(page int64, valid bool) {
	if p.valid.Test(page) == valid {
		return
	}
	delta := 1
	if valid {
		p.valid.Set(page)
	} else {
		p.valid.Clear(page)
		delta = -1
	}
	p.AddValid(p.Dev.SegmentOf(nand.PageAddr(page)), delta)
}

func (p *flatPolicy) RunCommitted(_ uint64, set []nand.PageAddr, cleared []uint64) sim.Duration {
	if len(set) > 0 {
		p.runs = append(p.runs, slices.Clone(set))
	}
	for _, a := range set {
		p.flip(int64(a), true)
	}
	for _, c := range cleared {
		p.flip(int64(c), false)
	}
	return 0
}

// moved is the cleaner's fix-up: the translation and the validity bit follow
// the page.
func (p *flatPolicy) moved(_ int, old, dst nand.PageAddr, h header.Header) {
	p.ActiveMap.Insert(h.LBA, uint64(dst))
	p.flip(int64(old), false)
	p.flip(int64(dst), true)
}

func (p *flatPolicy) PickVictim() (int, sim.Duration) { return p.BestVictim(), 0 }

// PlanClean walks the victim with a live cursor, as the vanilla FTL does: a
// page a write invalidated since the clean was planned is not copied.
func (p *flatPolicy) PlanClean(seg int) CleanPlan {
	pps, cursor := p.cfg.Nand.PagesPerSegment, 0
	return CleanPlan{
		Estimate: p.ValidCount(seg),
		Next: func(max int) (order []int, more bool) {
			for ; cursor < pps && len(order) < max; cursor++ {
				if p.valid.Test(int64(p.Dev.Addr(seg, cursor))) {
					order = append(order, cursor)
				}
			}
			return order, cursor < pps
		},
		Moved: p.moved,
	}
}

func (p *flatPolicy) HeadAdvanced(sim.Time)    {}
func (p *flatPolicy) SegmentTracked(int, bool) {}
func (p *flatPolicy) SegmentReleased(int)      {}

func (p *flatPolicy) SerializeCheckpoint() (uint64, []ChunkJob, error) {
	if p.secs == nil {
		return p.Seq, nil, nil
	}
	jobs, err := p.StreamJobs(header.TypeCheckpoint, p.Seq, p.secs)
	return p.Seq, jobs, err
}

// withChunks gives the checkpoint one section whose stream fills exactly n
// chunks.
func (p *flatPolicy) withChunks(t *testing.T, n int) {
	t.Helper()
	p.secs = []Section{{Kind: 1, Data: make([]byte, (n-1)*(p.cfg.Nand.SectorSize-chunkPrefix))}}
	if jobs, err := p.StreamJobs(header.TypeCheckpoint, 0, p.secs); err != nil || len(jobs) != n {
		t.Fatalf("setup: %d chunks, err %v; want %d", len(jobs), err, n)
	}
}

// failAt arms a fault hook that fails op on page a with err the first times
// attempts (0 = every attempt) and lets everything else through.
func (p *flatPolicy) failAt(op nand.Op, a nand.PageAddr, err error, times int) {
	fails := 0
	p.Dev.SetFaultHook(nand.FaultFunc(func(o nand.Op, at nand.PageAddr) error {
		if o != op || at != a || (times > 0 && fails == times) {
			return nil
		}
		fails++
		return err
	}))
}

// mustWrite appends a run for the device's own map at epoch 0.
func (p *flatPolicy) mustWrite(t *testing.T, now sim.Time, lba int64, n int, ver uint64) sim.Time {
	t.Helper()
	done, err := p.WriteActive(now, 0, lba, model.Sectors(512, lba, n, ver))
	if err != nil {
		t.Fatalf("write %d+%d: %v", lba, n, err)
	}
	return done
}

// TestCopyForwardPermanentFailureMidBatch: a permanent copy failure on the
// fourth page of a six-page batch hands back exactly the destinations that
// were never attempted, fixes up exactly the pages that landed, and a second
// call with the entries after the failing one finishes the victim.
func TestCopyForwardPermanentFailureMidBatch(t *testing.T) {
	p := newFlat(t)
	now := p.mustWrite(t, 0, 0, 8, 1) // fills segment 0
	victim := p.HeadSeg
	now = p.mustWrite(t, now, 8, 2, 1) // the head moves on: 6 pages of room left
	head, headIdx := p.HeadSeg, p.HeadIdx
	if head == victim || headIdx != 2 {
		t.Fatalf("setup: head %d/%d, victim %d", head, headIdx, victim)
	}
	p.failAt(nand.OpCopy, p.Dev.Addr(victim, 3), nand.ErrDeviceFailed, 0)
	var landed []string
	moved := func(v int, old, dst nand.PageAddr, h header.Header) {
		landed = append(landed, fmt.Sprintf("%d->%d", old, dst))
		p.moved(v, old, dst, h)
	}
	order := []int{0, 1, 2, 3, 4, 5, 6, 7}

	_, err := p.copyForward(now, victim, order, moved)
	if !errors.Is(err, nand.ErrDeviceFailed) {
		t.Fatalf("copyForward error = %v, want the injected failure", err)
	}
	if p.HeadSeg != head || p.HeadIdx != headIdx+3 {
		t.Fatalf("head at %d/%d, want %d/%d: only the 3 landed pages keep their slots", p.HeadSeg, p.HeadIdx, head, headIdx+3)
	}
	var want []string
	for i := 0; i < 3; i++ {
		want = append(want, fmt.Sprintf("%d->%d", p.Dev.Addr(victim, i), p.Dev.Addr(head, headIdx+i)))
	}
	if !slices.Equal(landed, want) {
		t.Fatalf("moved fired for %v, want %v", landed, want)
	}
	if st := p.Stats(); st.GCCopied != 3 || st.MediaFailures != 1 {
		t.Fatalf("GCCopied %d, MediaFailures %d: want 3 and 1", st.GCCopied, st.MediaFailures)
	}
	if p.Dev.SegmentHealth(victim) != nand.Suspect {
		t.Fatal("a permanent copy failure did not suspect the source segment")
	}

	landed = nil
	if _, err = p.copyForward(now, victim, order[4:], moved); err != nil || len(landed) != 4 {
		t.Fatalf("second call: %d moved, err %v; want 4, nil", len(landed), err)
	}
	if got := p.ValidCount(victim); got != 1 {
		t.Fatalf("victim keeps %d valid pages, want 1 (the page that failed)", got)
	}
}

// TestReadAnchorChunks: a committed checkpoint's chunks come back in anchor
// order and assemble into the sections written; a permanent read failure on
// one anchored chunk makes the whole generation untrusted (ok=false).
func TestReadAnchorChunks(t *testing.T) {
	p := newFlat(t)
	p.secs = []Section{{Kind: 1, Data: bytes.Repeat([]byte{7}, 1500)}, {Kind: 2, Data: []byte("table")}}
	now := p.mustWrite(t, 0, 0, 4, 3)
	now, err := p.writeCheckpoint(now)
	if err != nil {
		t.Fatal(err)
	}
	addrs := p.Dev.Anchor().Addrs
	if len(addrs) < 3 || p.Stats().Checkpoints != 1 {
		t.Fatalf("setup: %d anchored chunks, %d checkpoints; want several and 1", len(addrs), p.Stats().Checkpoints)
	}
	chunks, now, ok := p.ReadAnchorChunks(now)
	if !ok || len(chunks) != len(addrs) {
		t.Fatalf("ReadAnchorChunks: ok %v, %d chunks; want true, %d", ok, len(chunks), len(addrs))
	}
	for i, c := range chunks {
		if c.Addr != addrs[i] || c.Idx != uint64(i) || c.Total != uint64(len(addrs)) || c.Type != header.TypeCheckpoint {
			t.Fatalf("chunk %d: %+v", i, c)
		}
	}
	secs, ok := AssembleStream(p.AnchorID, chunks)
	if !ok || !sectionsEqual(secs, p.secs) {
		t.Fatalf("AssembleStream: ok %v, sections equal %v", ok, sectionsEqual(secs, p.secs))
	}

	p.failAt(nand.OpRead, addrs[1], nand.ErrDeviceFailed, 0)
	if _, _, ok := p.ReadAnchorChunks(now); ok {
		t.Fatal("an unreadable anchored chunk reported ok=true")
	}
}

func sectionsEqual(a, b []Section) bool {
	return slices.EqualFunc(a, b, func(x, y Section) bool { return x.Kind == y.Kind && bytes.Equal(x.Data, y.Data) })
}

// TestAssembleStream: only a complete stream — indices 0..Total-1, one copy
// each, one Total, every chunk tagged with the generation asked for, the
// checksum intact — assembles, in whatever order its chunks arrive.
func TestAssembleStream(t *testing.T) {
	p := newFlat(t)
	const id = 42
	want := []Section{{Kind: 1, Data: bytes.Repeat([]byte{9}, 1200)}, {Kind: 3, Data: []byte("tail")}}
	jobs, err := p.StreamJobs(header.TypeCheckpoint, id, want)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) < 3 {
		t.Fatalf("setup: %d chunks, want at least 3", len(jobs))
	}
	stream := func() []AnchorChunk {
		out := make([]AnchorChunk, len(jobs))
		for i, j := range jobs {
			out[i] = AnchorChunk{Idx: uint64(j.Idx), Total: uint64(j.Total), Type: j.Type, Payload: slices.Clone(j.Data)}
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		id     uint64
		mutate func([]AnchorChunk) []AnchorChunk
		ok     bool
	}{
		{"complete", id, func(c []AnchorChunk) []AnchorChunk { return c }, true},
		{"reversed", id, func(c []AnchorChunk) []AnchorChunk { slices.Reverse(c); return c }, true},
		{"missing-index", id, func(c []AnchorChunk) []AnchorChunk { return slices.Delete(c, 1, 2) }, false},
		{"duplicate-index", id, func(c []AnchorChunk) []AnchorChunk { c[2] = c[1]; return c }, false},
		{"mismatched-total", id, func(c []AnchorChunk) []AnchorChunk { c[1].Total++; return c }, false},
		{"total-zero", id, func(c []AnchorChunk) []AnchorChunk {
			for i := range c {
				c[i].Total = 0
			}
			return c
		}, false},
		{"index-past-total", id, func(c []AnchorChunk) []AnchorChunk { c[1].Idx = c[1].Total; return c }, false},
		{"empty", id, func([]AnchorChunk) []AnchorChunk { return nil }, false},
		{"wrong-generation", id + 1, func(c []AnchorChunk) []AnchorChunk { return c }, false},
		{"flipped-payload-byte", id, func(c []AnchorChunk) []AnchorChunk { c[1].Payload[100] ^= 1; return c }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			secs, ok := AssembleStream(tc.id, tc.mutate(stream()))
			if ok != tc.ok {
				t.Fatalf("ok %v, want %v", ok, tc.ok)
			}
			if ok && !sectionsEqual(secs, want) {
				t.Fatal("sections differ from those written")
			}
		})
	}
}

// TestWriteRunAcrossSegmentBoundary: a run that overflows the head segment
// lands as one batch NAND call per segment chunk, the policy sees one
// contiguous set per chunk, and each segment records the newest sequence
// number it holds.
func TestWriteRunAcrossSegmentBoundary(t *testing.T) {
	p := newFlat(t)
	now := p.mustWrite(t, 0, 0, 3, 1)
	first := p.HeadSeg
	calls, seq := p.Stats().BatchNandCalls, p.Seq
	p.runs = nil
	p.mustWrite(t, now, 10, 12, 2) // 5 pages fill the head segment, 7 open the next
	if got := p.Stats().BatchNandCalls - calls; got != 2 {
		t.Fatalf("%d batch NAND calls, want 2 (one per segment chunk)", got)
	}
	second := p.HeadSeg
	if len(p.runs) != 2 || len(p.runs[0]) != 5 || len(p.runs[1]) != 7 {
		t.Fatalf("RunCommitted sets %v, want 5 then 7 pages", p.runs)
	}
	for i, run := range p.runs {
		seg := []int{first, second}[i]
		for j, a := range run {
			if p.Dev.SegmentOf(a) != seg || (j > 0 && a != run[j-1]+1) {
				t.Fatalf("set %d is not one contiguous run in segment %d: %v", i, seg, run)
			}
		}
	}
	if p.SegLastSeq[first] != seq+5 || p.SegLastSeq[second] != seq+12 {
		t.Fatalf("SegLastSeq = %d, %d; want %d, %d", p.SegLastSeq[first], p.SegLastSeq[second], seq+5, seq+12)
	}
}

// TestReadRunOverHoles: unmapped sectors read as zeros, and the LookupRange
// scratch comes back all-false, so a fully unmapped read right after a mapped
// one reads zeros rather than a stale translation.
func TestReadRunOverHoles(t *testing.T) {
	p := newFlat(t)
	now := p.mustWrite(t, 0, 1, 1, 4)
	now = p.mustWrite(t, now, 3, 1, 4)
	buf := bytes.Repeat([]byte{0xff}, 4*512)
	_, now, err := p.ReadRun(p.ActiveMap, now, 0, buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		want := make([]byte, 512)
		if i%2 == 1 {
			want = model.Sectors(512, int64(i), 1, 4)
		}
		if !bytes.Equal(buf[i*512:(i+1)*512], want) {
			t.Fatalf("sector %d: wrong contents", i)
		}
	}
	if slices.Contains(p.ws.found, true) {
		t.Fatalf("LookupRange scratch left set: %v", p.ws.found)
	}
	calls := p.Stats().BatchNandCalls
	buf = bytes.Repeat([]byte{0xff}, 4*512)
	if _, _, err := p.ReadRun(p.ActiveMap, now, 4, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, make([]byte, 4*512)) || p.Stats().BatchNandCalls != calls {
		t.Fatal("a fully unmapped read returned data or touched the device")
	}
}

// TestForcedCleaningUnderChurn: overwrite churn on a device this small runs
// the writer-forced cleaner many times; every sector still reads its newest
// version, the victim heap stays consistent, and the per-segment valid counts
// match the bitmap.
func TestForcedCleaningUnderChurn(t *testing.T) {
	p := newFlat(t)
	rng := sim.NewRNG(5)
	last := model.NewImage()
	now := sim.Time(0)
	for step := 0; step < 400; step++ {
		n := 1 + rng.Intn(4)
		lba := rng.Int63n(p.Sectors() - int64(n) + 1)
		ver := uint64(step + 1)
		now = p.mustWrite(t, now, lba, n, ver)
		for i := int64(0); i < int64(n); i++ {
			last.Write(lba+i, ver)
		}
	}
	if p.Stats().GCForced == 0 {
		t.Fatal("churn never forced a clean")
	}
	err := last.Verify(512, func(lba int64, buf []byte) error {
		_, _, err := p.ReadRun(p.ActiveMap, now, lba, buf)
		return err
	})
	if err != nil {
		t.Fatalf("newest versions: %v", err)
	}
	if err := p.CheckVictimHeap(); err != nil {
		t.Fatal(err)
	}
	for seg := 0; seg < p.cfg.Nand.Segments; seg++ {
		count := 0
		for i := 0; i < p.cfg.Nand.PagesPerSegment; i++ {
			if p.valid.Test(int64(p.Dev.Addr(seg, i))) {
				count++
			}
		}
		if p.SegInUse(seg) && p.ValidCount(seg) != count {
			t.Fatalf("segment %d: ValidCount %d, bitmap %d", seg, p.ValidCount(seg), count)
		}
	}
}

// TestOutOfSpaceDegradesAndRecovers: with every page outside the rescue
// reserve advertised and written, no used segment holds anything to
// reclaim, so the forced cleaner finds no victim. The next write is shed
// with ErrOutOfSpace — counted, Degraded set, log head and free pool
// untouched, the old data still read — and once a trim frees a segment's
// worth the next write succeeds and clears Degraded. The free pool never
// drops below the reserve.
func TestOutOfSpaceDegradesAndRecovers(t *testing.T) {
	p := newFlatWith(t, func(c *Config) {
		c.UserSectors = int64(c.Nand.Segments-c.RescueReserve) * int64(c.Nand.PagesPerSegment)
	})
	pps, reserve := p.cfg.Nand.PagesPerSegment, p.cfg.RescueReserve
	pool := func(when string) {
		t.Helper()
		if len(p.FreeSegs) < reserve {
			t.Fatalf("%s: %d free segments, below the reserve of %d", when, len(p.FreeSegs), reserve)
		}
	}
	now := sim.Time(0)
	for lba := int64(0); lba < p.Sectors(); lba += int64(pps) {
		now = p.mustWrite(t, now, lba, pps, 1)
		pool("filling")
	}
	if p.HeadIdx != pps || len(p.FreeSegs) != reserve || p.BestVictim() >= 0 {
		t.Fatalf("setup: head index %d, %d free, victim %d; want a full head, the reserve free and no victim", p.HeadIdx, len(p.FreeSegs), p.BestVictim())
	}
	head, headIdx, free := p.HeadSeg, p.HeadIdx, slices.Clone(p.FreeSegs)

	_, err := p.WriteActive(now, 0, 0, model.Sectors(512, 0, 1, 2))
	if !errors.Is(err, ErrOutOfSpace) {
		t.Fatalf("write with nothing reclaimable: %v, want ErrOutOfSpace", err)
	}
	// The error says why: the pool at the reserve, no victim, no clean.
	why := fmt.Sprintf(": %d free segments, reserve %d; best victim none; in-flight clean none", reserve, p.cfg.DataReserve())
	if !strings.HasSuffix(err.Error(), why) {
		t.Fatalf("out-of-space error %q does not end in %q", err, why)
	}
	if st := p.Stats(); st.OutOfSpaceWrites != 1 || !st.Degraded {
		t.Fatalf("after the shed write: OutOfSpaceWrites %d, Degraded %v; want 1 and true", st.OutOfSpaceWrites, st.Degraded)
	}
	if p.HeadSeg != head || p.HeadIdx != headIdx || !slices.Equal(p.FreeSegs, free) {
		t.Fatalf("the shed write moved the head to %d/%d and the pool to %v (was %d/%d, %v)", p.HeadSeg, p.HeadIdx, p.FreeSegs, head, headIdx, free)
	}
	pool("degraded")
	buf := make([]byte, 512)
	if _, _, err := p.ReadRun(p.ActiveMap, now, 0, buf); err != nil || !bytes.Equal(buf, model.Sectors(512, 0, 1, 1)) {
		t.Fatalf("read while degraded: %v, or not the data written before", err)
	}

	now, err = p.TrimActive(now, 0, 0, int64(pps))
	if err != nil {
		t.Fatal(err)
	}
	now = p.mustWrite(t, now, 0, 1, 3)
	if st := p.Stats(); st.Degraded || st.OutOfSpaceWrites != 1 {
		t.Fatalf("after a trim freed a segment: Degraded %v, OutOfSpaceWrites %d; want false and 1", st.Degraded, st.OutOfSpaceWrites)
	}
	pool("recovered")
	if _, _, err := p.ReadRun(p.ActiveMap, now, 0, buf); err != nil || !bytes.Equal(buf, model.Sectors(512, 0, 1, 3)) {
		t.Fatalf("read of the write after recovery: %v, or not its data", err)
	}
}

// scanVictim is the reference victim order: an oldest-first scan of UsedSegs
// that keeps the first strict maximum of reclaimable pages, skipping the head
// and the segment a background clean owns.
func (p *flatPolicy) scanVictim() (victim, ties int) {
	victim, most := -1, 0
	for _, seg := range p.UsedSegs {
		if seg == p.HeadSeg || seg == p.GCVictim {
			continue
		}
		switch r := p.cfg.Nand.PagesPerSegment - p.ValidCount(seg) - p.PinnedInSeg(seg); {
		case r > most:
			victim, most, ties = seg, r, 0
		case r == most && r > 0:
			ties++
		}
	}
	return victim, ties
}

// TestBestVictimMatchesOldestFirstScan: under seeded write/trim churn the
// heap picks what the oldest-first scan picks — ties to the older segment —
// and never the head, the segment a background clean owns, or a segment
// whose valid plus pinned pages fill it, while the heap stays consistent.
func TestBestVictimMatchesOldestFirstScan(t *testing.T) {
	p := newFlat(t)
	pps := p.cfg.Nand.PagesPerSegment
	rng := sim.NewRNG(11)
	now := sim.Time(0)
	check := func(step int, what string) {
		t.Helper()
		got := p.BestVictim()
		want, _ := p.scanVictim()
		if got != want {
			t.Fatalf("step %d (%s): BestVictim %d, oldest-first scan %d", step, what, got, want)
		}
		if got >= 0 && (got == p.HeadSeg || got == p.GCVictim || p.ValidCount(got)+p.PinnedInSeg(got) >= pps) {
			t.Fatalf("step %d (%s): victim %d is the head, the clean's victim or full", step, what, got)
		}
		if err := p.CheckVictimHeap(); err != nil {
			t.Fatalf("step %d (%s): %v", step, what, err)
		}
	}
	tiedSteps, ownedSteps, pinnedSteps := 0, 0, 0
	for step := 0; step < 600; step++ {
		n := 1 + rng.Intn(4)
		lba := rng.Int63n(p.Sectors() - int64(n) + 1)
		if rng.Intn(8) == 0 {
			var err error
			if now, err = p.TrimActive(now, 0, lba, int64(n)); err != nil {
				t.Fatal(err)
			}
		} else {
			now = p.mustWrite(t, now, lba, n, uint64(step+1))
		}
		check(step, "churn")
		best, ties := p.scanVictim()
		if best < 0 {
			continue
		}
		if ties > 0 {
			tiedSteps++
		}
		// A background clean owns the best segment: the next best wins.
		p.GCVictim = best
		check(step, "clean in flight")
		p.GCVictim = -1
		ownedSteps++
		// Pin every page of the best segment the policy does not count
		// valid: nothing is left to reclaim there.
		var pinned []nand.PageAddr
		for i := 0; i < pps; i++ {
			if a := p.Dev.Addr(best, i); !p.valid.Test(int64(a)) {
				p.pinChunk(a)
				pinned = append(pinned, a)
			}
		}
		check(step, "segment filled by pins")
		for _, a := range pinned {
			p.unpinChunk(a)
		}
		pinnedSteps++
	}
	if tiedSteps == 0 || ownedSteps == 0 || pinnedSteps == 0 || p.Stats().GCForced == 0 {
		t.Fatalf("churn exercised %d tied, %d owned, %d pinned steps and %d forced cleans; want all positive",
			tiedSteps, ownedSteps, pinnedSteps, p.Stats().GCForced)
	}
}

// TestCheckIO: a request is refused on a closed log, for a length below 1,
// and for any range not inside [0, UserSectors), without lba+n overflowing
// near MaxInt64; a run ending at the last sector fits.
func TestCheckIO(t *testing.T) {
	open := newFlat(t)
	closed := newFlat(t)
	if _, err := closed.Close(0); err != nil {
		t.Fatal(err)
	}
	last := open.cfg.UserSectors - 1
	for _, tc := range []struct {
		name string
		p    *flatPolicy
		lba  int64
		n    int
		want error
	}{
		{"closed", closed, 0, 1, ErrClosed},
		{"zero sectors", open, 0, 0, ErrBadLength},
		{"negative sectors", open, 0, -1, ErrBadLength},
		{"negative LBA", open, -1, 1, ErrOutOfRange},
		{"run past the end", open, last, 2, ErrOutOfRange},
		{"LBA past the end", open, last + 1, 1, ErrOutOfRange},
		{"LBA near MaxInt64", open, math.MaxInt64 - 1, 2, ErrOutOfRange},
		{"largest run near MaxInt64", open, math.MaxInt64, math.MaxInt, ErrOutOfRange},
		{"last sector", open, last, 1, nil},
		{"whole device", open, 0, int(open.cfg.UserSectors), nil},
	} {
		if err := tc.p.CheckIO(tc.lba, tc.n); !errors.Is(err, tc.want) {
			t.Errorf("%s: CheckIO(%d, %d) = %v, want %v", tc.name, tc.lba, tc.n, err, tc.want)
		}
	}
}

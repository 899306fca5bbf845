package logcore

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"testing"

	"iosnap/internal/ftlmap"
	"iosnap/internal/model"
	"iosnap/internal/nand"
	"iosnap/internal/retry"
	"iosnap/internal/sim"
)

// mediaRun is one operation that crosses the media boundary, prepared on a
// fresh log: the page whose fault the table injects for run index k, the
// segment a permanent failure must blame, and the run itself, which reports
// how many pages landed, the time its device work was submitted and its
// completion time.
type mediaRun struct {
	target nand.PageAddr
	blame  int
	run    func(now sim.Time) (n int, start, done sim.Time, err error)
}

// mediaOp is one row of operations in TestMediaBoundary.
type mediaOp struct {
	name    string
	op      nand.Op      // the device operation the fault targets
	pages   int          // pages in the run
	lat     sim.Duration // one page's device time on the test geometry
	appends bool         // a head append: pages consume Seq numbers and a media failure seals the head
	takes   bool         // the run takes log-head slots
	prepare func(t *testing.T, p *flatPolicy, k int) mediaRun
}

// TestMediaBoundary: every page the log programs, reads or copies crosses the
// media boundary as part of a batch device call, and a failing page alone is
// re-driven on the retry policy's backoff schedule before the rest of its
// batch resumes. On a one-channel device without a bus model a page costs
// exactly its latency, so a run of P pages whose page k fails transiently
// once or twice completes at start + 100 µs or 300 µs + latency·(P−k), with
// one retry per failure. A transient fault that outlives the three attempts,
// or a permanent one, lands k pages and marks the blamed segment suspect —
// the destination of a program, the page of a read, the source of a copy. A
// failed head append keeps the failing page's Seq, hands back the slots and
// Seq numbers of the pages it never attempted, and on a media failure seals
// the head; an error that is not the medium's rolls back without sealing.
// After any failed run that took head slots, more than a segment of writes
// lands and reads back: the failure leaves no hole at the head.
func TestMediaBoundary(t *testing.T) {
	const runPages = 6
	span := sim.Duration(ftlmap.RunSpan(runPages)) * mapCPUCost
	ops := []mediaOp{
		{name: "program run", op: nand.OpProgram, pages: runPages, lat: 4 * sim.Microsecond, appends: true, takes: true,
			prepare: func(t *testing.T, p *flatPolicy, k int) mediaRun {
				p.mustWrite(t, 0, 0, 2, 1) // six pages of room stay in the head segment
				return mediaRun{target: p.Dev.Addr(p.HeadSeg, p.HeadIdx+k), blame: p.HeadSeg,
					run: func(now sim.Time) (int, sim.Time, sim.Time, error) {
						n, done, err := p.WriteRun(p.ActiveMap, 0, now, 10, model.Sectors(512, 10, runPages, 2))
						return n, now.Add(span), done, err
					}}
			}},
		{name: "read run", op: nand.OpRead, pages: runPages, lat: 2 * sim.Microsecond,
			prepare: func(t *testing.T, p *flatPolicy, k int) mediaRun {
				p.mustWrite(t, 0, 0, runPages, 1)
				return mediaRun{target: p.Dev.Addr(0, k), blame: 0,
					run: func(now sim.Time) (int, sim.Time, sim.Time, error) {
						n, done, err := p.ReadRun(p.ActiveMap, now, 0, make([]byte, runPages*512))
						return n, now.Add(span), done, err
					}}
			}},
		{name: "copy run", op: nand.OpCopy, pages: runPages, lat: 6 * sim.Microsecond, takes: true,
			prepare: func(t *testing.T, p *flatPolicy, k int) mediaRun {
				now := p.mustWrite(t, 0, 0, 8, 1) // fills segment 0
				p.mustWrite(t, now, 8, 2, 1)      // the head moves on with six pages of room
				order := []int{0, 1, 2, 3, 4, 5}
				return mediaRun{target: p.Dev.Addr(0, k), blame: 0,
					run: func(now sim.Time) (int, sim.Time, sim.Time, error) {
						copied := p.Stats().GCCopied
						done, err := p.copyForward(now, 0, order, p.moved)
						return int(p.Stats().GCCopied - copied), now, done, err
					}}
			}},
		{name: "checkpoint chunk", op: nand.OpProgram, pages: 1, lat: 4 * sim.Microsecond, appends: true, takes: true,
			prepare: func(t *testing.T, p *flatPolicy, k int) mediaRun {
				p.mustWrite(t, 0, 0, 2, 1)
				p.secs = []Section{{Kind: 1, Data: []byte("one chunk")}}
				return mediaRun{target: p.Dev.Addr(p.HeadSeg, p.HeadIdx+k), blame: p.HeadSeg,
					run: func(now sim.Time) (int, sim.Time, sim.Time, error) {
						chunks := p.Stats().CheckpointChunks
						done, err := p.writeCheckpoint(now)
						return int(p.Stats().CheckpointChunks - chunks), now, done, err
					}}
			}},
	}
	errLogic := errors.New("not a media error")
	faults := []struct {
		name    string
		err     error
		times   int // failures before the page succeeds; 0 = every attempt fails
		absorbs bool
		retries int64
		media   bool // counts as a permanent media failure
	}{
		{"transient once", nand.ErrTransient, 1, true, 1, false},
		{"transient twice", nand.ErrTransient, 2, true, 2, false},
		{"transient past the budget", nand.ErrTransient, 0, false, 2, true},
		{"permanent", nand.ErrDeviceFailed, 0, false, 0, true},
		{"not the medium's", errLogic, 0, false, 0, false},
	}
	backoff := retry.Default().Backoff
	for _, o := range ops {
		ks := []int{0, 3, o.pages - 1}
		if o.pages == 1 {
			ks = ks[:1]
		}
		for _, f := range faults {
			for _, k := range ks {
				t.Run(fmt.Sprintf("%s/%s/page %d", o.name, f.name, k), func(t *testing.T) {
					p := newFlatWith(t, func(c *Config) {
						c.Nand.Channels = 1
						c.Nand.ReadBusMBps = 0
						c.Nand.WriteBusMBps = 0
					})
					r := o.prepare(t, p, k)
					seq, head, headIdx, free := p.Seq, p.HeadSeg, p.HeadIdx, append([]int(nil), p.FreeSegs...)
					p.failAt(o.op, r.target, f.err, f.times)
					now := sim.Time(sim.Millisecond) // every channel idle
					n, start, done, err := r.run(now)
					st := p.Stats()
					if st.Retries != f.retries {
						t.Errorf("Retries %d, want %d", st.Retries, f.retries)
					}
					if f.absorbs {
						if err != nil || n != o.pages {
							t.Fatalf("n %d, err %v; want %d pages and no error", n, err, o.pages)
						}
						if want := start.Add(backoff*sim.Duration(1<<f.times-1) + o.lat*sim.Duration(o.pages-k)); done != want {
							t.Errorf("done at %v, want %v (start %v + backoff + %v per page from page %d)", done, want, start, o.lat, k)
						}
						if st.MediaFailures != 0 || p.Dev.SegmentHealth(r.blame) != nand.Healthy {
							t.Errorf("an absorbed fault counted %d media failures", st.MediaFailures)
						}
						if o.appends && p.Seq != seq+uint64(o.pages) {
							t.Errorf("Seq %d, want %d", p.Seq, seq+uint64(o.pages))
						}
						if o.takes && (p.HeadSeg != head || p.HeadIdx != headIdx+o.pages) {
							t.Errorf("head at %d/%d, want %d/%d", p.HeadSeg, p.HeadIdx, head, headIdx+o.pages)
						}
						return
					}
					if !errors.Is(err, f.err) || n != k {
						t.Fatalf("n %d, err %v; want %d pages and %v", n, err, k, f.err)
					}
					health, failures := nand.Healthy, int64(0)
					if f.media {
						health, failures = nand.Suspect, 1
					}
					if st.MediaFailures != failures || p.Dev.SegmentHealth(r.blame) != health {
						t.Errorf("MediaFailures %d, segment %d %v; want %d and %v", st.MediaFailures, r.blame, p.Dev.SegmentHealth(r.blame), failures, health)
					}
					if wantSeq := seq + uint64(k+1); o.appends && p.Seq != wantSeq {
						t.Errorf("Seq %d, want %d: the failing page keeps its number, the rest hand theirs back", p.Seq, wantSeq)
					} else if !o.appends && p.Seq != seq {
						t.Errorf("Seq moved from %d to %d", seq, p.Seq)
					}
					switch {
					case o.appends && f.media:
						if p.HeadSeg != free[0] || p.HeadIdx != 0 {
							t.Errorf("head at %d/%d, want sealed onto %d/0", p.HeadSeg, p.HeadIdx, free[0])
						}
						if got := p.Dev.NextFreeInSegment(head); got != headIdx+k {
							t.Errorf("old head programmed to page %d, want %d", got, headIdx+k)
						}
					case o.takes:
						if p.HeadSeg != head || p.HeadIdx != headIdx+k {
							t.Errorf("head at %d/%d, want %d/%d: only the landed pages keep their slots", p.HeadSeg, p.HeadIdx, head, headIdx+k)
						}
					default:
						if p.HeadSeg != head || p.HeadIdx != headIdx {
							t.Errorf("a read moved the head to %d/%d", p.HeadSeg, p.HeadIdx)
						}
					}
					if o.takes {
						p.Dev.SetFaultHook(nil)
						end := int64(22 + p.cfg.Nand.PagesPerSegment)
						for lba := int64(20); lba < end; lba++ {
							done = p.mustWrite(t, done, lba, 1, 3)
						}
						p.readsBack(t, done, 20, end, 3)
					}
				})
			}
		}
	}
}

// TestTransientFaultsRetriedInvisibly: a transient program or read fault
// shorter than the retry budget costs retries and nothing else — the write
// and the read succeed and are counted whole, nothing is suspect, and the
// read returns what was written.
func TestTransientFaultsRetriedInvisibly(t *testing.T) {
	p := newFlat(t)
	target := p.Dev.Addr(p.HeadSeg, p.HeadIdx+2) // LBA 5 of the run
	p.failAt(nand.OpProgram, target, nand.ErrTransient, 2)
	now, err := p.WriteActive(0, 0, 3, model.Sectors(512, 3, 5, 1))
	if err != nil {
		t.Fatalf("a transient program fault reached the writer: %v", err)
	}
	p.failAt(nand.OpRead, target, nand.ErrTransient, 1)
	buf := make([]byte, 5*512)
	if _, err := p.Read(now, 3, buf); err != nil || !bytes.Equal(buf, model.Sectors(512, 3, 5, 1)) {
		t.Fatalf("read after a transient read fault: %v, or not the data written", err)
	}
	st := p.Stats()
	if st.Retries != 3 || st.UserWrites != 5 || st.UserReads != 5 || st.MediaFailures != 0 || st.SegmentsSuspect != 0 {
		t.Fatalf("Retries %d, UserWrites %d, UserReads %d, MediaFailures %d, SegmentsSuspect %d; want 3, 5, 5, 0, 0",
			st.Retries, st.UserWrites, st.UserReads, st.MediaFailures, st.SegmentsSuspect)
	}
}

// TestPartialBatchAccounting: a run that fails for good mid-way keeps what
// landed and counts only that. A write whose fifth page fails leaves four
// sectors mapped, counted in UserWrites and BytesWritten and readable, and
// the rest unmapped; a read whose fourth page fails counts three sectors.
// Both return the time the landed work took.
func TestPartialBatchAccounting(t *testing.T) {
	p := newFlat(t)
	now := sim.Time(1000)
	p.failAt(nand.OpProgram, p.Dev.Addr(p.HeadSeg, p.HeadIdx+4), nand.ErrDeviceFailed, 0)
	done, err := p.WriteActive(now, 0, 0, model.Sectors(512, 0, 8, 1))
	if !errors.Is(err, nand.ErrDeviceFailed) || done <= now {
		t.Fatalf("write: done %v (from %v), err %v; want time spent and the injected failure", done, now, err)
	}
	if st := p.Stats(); st.UserWrites != 4 || st.BytesWritten != 4*512 {
		t.Fatalf("UserWrites %d, BytesWritten %d; want 4 and %d", st.UserWrites, st.BytesWritten, 4*512)
	}
	p.Dev.SetFaultHook(nil)
	p.readsBack(t, done, 0, 4, 1)
	p.readsBack(t, done, 4, 8, 0) // version 0 reads as zeros

	q := newFlat(t)
	now = q.mustWrite(t, 0, 0, 8, 1)
	q.failAt(nand.OpRead, q.Dev.Addr(0, 3), nand.ErrDeviceFailed, 0)
	done, err = q.Read(now, 0, make([]byte, 8*512))
	if !errors.Is(err, nand.ErrDeviceFailed) || done <= now {
		t.Fatalf("read: done %v (from %v), err %v; want time spent and the injected failure", done, now, err)
	}
	if st := q.Stats(); st.UserReads != 3 || st.BytesRead != 3*512 {
		t.Fatalf("UserReads %d, BytesRead %d; want 3 and %d", st.UserReads, st.BytesRead, 3*512)
	}
}

// TestCleanRetiresDyingVictim: a victim that is suspect, or whose erase
// wears out, is cleaned like any other — its valid pages are copied off —
// and then retired instead of returning to the free pool. No data is lost
// and no clean error is recorded.
func TestCleanRetiresDyingVictim(t *testing.T) {
	for _, tc := range []struct {
		name   string
		arm    func(p *flatPolicy, victim int)
		erases int64
	}{
		{"suspect", func(p *flatPolicy, victim int) { p.Dev.MarkSuspect(victim) }, 1},
		{"erase wears out", func(p *flatPolicy, victim int) {
			p.failAt(nand.OpErase, p.Dev.Addr(victim, 0), nand.ErrWornOut, 0)
		}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := newFlatWith(t, func(c *Config) { c.GCChunk = 2 })
			victim, now := p.halfInvalidVictim(t)
			tc.arm(p, victim)
			if err := p.ForceClean(now, victim); err != nil {
				t.Fatal(err)
			}
			now = p.Sched.Drain(now)
			st := p.Stats()
			if st.GCRuns != 1 || st.GCCopied != 5 || st.GCErases != tc.erases || st.GCErrors != 0 || st.SegmentsRetired != 1 {
				t.Fatalf("GCRuns %d, GCCopied %d, GCErases %d, GCErrors %d, SegmentsRetired %d; want 1, 5, %d, 0, 1",
					st.GCRuns, st.GCCopied, st.GCErases, st.GCErrors, st.SegmentsRetired, tc.erases)
			}
			if p.Dev.SegmentHealth(victim) != nand.Retired || p.SegInUse(victim) || slices.Contains(p.FreeSegs, victim) {
				t.Fatalf("victim %v, in use %v, free pool %v; want it retired and in neither pool",
					p.Dev.SegmentHealth(victim), p.SegInUse(victim), p.FreeSegs)
			}
			p.readsBack(t, now, 0, 5, 1)
			p.readsBack(t, now, 5, 8, 2)
			if err := p.CheckVictimHeap(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

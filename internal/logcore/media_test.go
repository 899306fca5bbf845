package logcore

import (
	"errors"
	"fmt"
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
					fails := 0
					p.Dev.SetFaultHook(nand.FaultFunc(func(op nand.Op, a nand.PageAddr) error {
						if op != o.op || a != r.target || (f.times > 0 && fails == f.times) {
							return nil
						}
						fails++
						return f.err
					}))
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
				})
			}
		}
	}
}

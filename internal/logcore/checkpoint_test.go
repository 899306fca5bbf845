package logcore

import (
	"errors"
	"slices"
	"testing"

	"iosnap/internal/nand"
)

// TestBackgroundCheckpointPacesChunks: a background checkpoint programs
// GCChunk chunks per quantum, pinning each as it lands, and commits after
// the last: the anchor names every chunk of the generation taken when it
// started, the chunks assemble into the sections serialized, and the slot
// is free again. A second checkpoint is refused while one is queued.
func TestBackgroundCheckpointPacesChunks(t *testing.T) {
	p := newFlatWith(t, func(c *Config) { c.GCChunk = 2 })
	p.withChunks(t, 5)
	now := p.mustWrite(t, 0, 0, 2, 1)
	id := p.Seq
	if !p.StartCheckpoint(now) || p.StartCheckpoint(now) {
		t.Fatal("want the first StartCheckpoint scheduled and the second refused")
	}
	for _, landed := range []int{2, 4} {
		p.step(t)
		if len(p.CkptInflight) != landed || len(p.CkptPins) != landed || p.Stats().Checkpoints != 0 {
			t.Fatalf("%d chunks in flight, %d pinned, %d checkpoints; want %d, %d, 0",
				len(p.CkptInflight), len(p.CkptPins), p.Stats().Checkpoints, landed, landed)
		}
	}
	p.step(t)
	if st := p.Stats(); st.Checkpoints != 1 || st.CheckpointChunks != 5 || p.Sched.Pending() != 0 || p.CkptInflight != nil {
		t.Fatalf("after the last quantum: %d checkpoints of %d chunks, %d tasks queued, %d in flight; want 1, 5, 0, 0",
			st.Checkpoints, st.CheckpointChunks, p.Sched.Pending(), len(p.CkptInflight))
	}
	a := p.Dev.Anchor()
	if a == nil || a.ID != id || p.AnchorID != id || len(a.Addrs) != 5 || !slices.Equal(a.Addrs, p.AnchorAddrs) || len(p.CkptPins) != 5 {
		t.Fatalf("anchor %+v, AnchorID %d, %d pins; want generation %d naming 5 pinned chunks", a, p.AnchorID, len(p.CkptPins), id)
	}
	chunks, now, ok := p.ReadAnchorChunks(now)
	if secs, ok2 := AssembleStream(id, chunks); !ok || !ok2 || !sectionsEqual(secs, p.secs) {
		t.Fatal("the committed chunks do not assemble into the sections serialized")
	}
	if !p.StartCheckpoint(now) {
		t.Fatal("the slot is not free after the commit")
	}
}

// TestCheckpointChunkFailureAborts: a permanent failure on a background
// checkpoint's fourth chunk (its second quantum) aborts the checkpoint: it
// is counted in CheckpointErrors, the three chunks that landed lose their
// pins, the previous generation stays anchored and pinned, and the head
// seals off the failing segment. The slot is free again, a retried
// checkpoint commits, and writes land.
func TestCheckpointChunkFailureAborts(t *testing.T) {
	p := newFlatWith(t, func(c *Config) { c.GCChunk = 2 })
	p.withChunks(t, 2)
	now := p.mustWrite(t, 0, 0, 2, 1)
	p.StartCheckpoint(now)
	now = p.Sched.Drain(now)
	prev, prevID := slices.Clone(p.AnchorAddrs), p.AnchorID
	if len(prev) != 2 {
		t.Fatalf("setup: the first checkpoint anchored %d chunks, want 2", len(prev))
	}

	p.withChunks(t, 5)
	head, free := p.HeadSeg, p.FreeSegs[0]
	if p.HeadIdx+4 > p.cfg.Nand.PagesPerSegment {
		t.Fatalf("setup: head at %d/%d cannot hold four chunks", head, p.HeadIdx)
	}
	p.failAt(nand.OpProgram, p.Dev.Addr(head, p.HeadIdx+3), nand.ErrDeviceFailed, 0)
	if !p.StartCheckpoint(now) {
		t.Fatal("StartCheckpoint refused")
	}
	now = p.Sched.Drain(now)
	p.Dev.SetFaultHook(nil)
	st := p.Stats()
	if st.CheckpointErrors != 1 || st.CheckpointLastErr == "" || st.Checkpoints != 1 {
		t.Fatalf("CheckpointErrors %d (%q), Checkpoints %d; want 1 error and the first checkpoint only",
			st.CheckpointErrors, st.CheckpointLastErr, st.Checkpoints)
	}
	if a := p.Dev.Anchor(); a.ID != prevID || p.AnchorID != prevID || !slices.Equal(a.Addrs, prev) {
		t.Fatalf("anchor %+v after the abort, want generation %d at %v", a, prevID, prev)
	}
	if len(p.CkptPins) != len(prev) || !p.CkptPins[prev[0]] || !p.CkptPins[prev[1]] || p.CkptInflight != nil {
		t.Fatalf("%d pins, %d in flight; want only the anchored generation's %d pinned", len(p.CkptPins), len(p.CkptInflight), len(prev))
	}
	if p.HeadSeg != free || p.HeadIdx != 0 || p.Dev.SegmentHealth(head) != nand.Suspect {
		t.Fatalf("head at %d/%d, segment %d %v; want the head sealed onto %d/0 and %d suspect",
			p.HeadSeg, p.HeadIdx, head, p.Dev.SegmentHealth(head), free, head)
	}
	if !p.StartCheckpoint(now) {
		t.Fatal("the slot is not free after the abort")
	}
	now = p.Sched.Drain(now)
	if st := p.Stats(); st.Checkpoints != 2 || len(p.CkptPins) != 5 {
		t.Fatalf("retried checkpoint: %d checkpoints, %d pins; want 2 and 5", st.Checkpoints, len(p.CkptPins))
	}
	now = p.mustWrite(t, now, 2, 4, 2)
	p.readsBack(t, now, 0, 2, 1)
	p.readsBack(t, now, 2, 6, 2)
}

// TestCloseSupersedesBackgroundCheckpoint: Close replaces a background
// checkpoint — queued, or with a quantum's chunks landed — with one
// synchronous commit at the Seq Close found. The abandoned chunks lose their
// pins, and the abandoned task, run afterwards, programs nothing.
func TestCloseSupersedesBackgroundCheckpoint(t *testing.T) {
	for _, tc := range []struct {
		name   string
		quanta int // run before Close
	}{{"queued", 0}, {"mid-task", 1}} {
		t.Run(tc.name, func(t *testing.T) {
			p := newFlatWith(t, func(c *Config) { c.GCChunk = 2 })
			p.withChunks(t, 3)
			now := p.mustWrite(t, 0, 0, 2, 1)
			if !p.StartCheckpoint(now) {
				t.Fatal("StartCheckpoint refused")
			}
			for range tc.quanta {
				p.step(t)
			}
			landed := slices.Clone(p.CkptInflight)
			if len(landed) != 2*tc.quanta {
				t.Fatalf("setup: %d chunks landed, want %d", len(landed), 2*tc.quanta)
			}
			now = p.mustWrite(t, now, 2, 1, 1) // Seq moves past the task's generation
			seq := p.Seq
			now, err := p.Close(now)
			if err != nil {
				t.Fatal(err)
			}
			if st := p.Stats(); st.Checkpoints != 1 || p.AnchorID != seq || p.Dev.Anchor().ID != seq {
				t.Fatalf("Close: %d checkpoints, anchor %d; want 1 at Seq %d", st.Checkpoints, p.AnchorID, seq)
			}
			for _, a := range landed {
				if p.CkptPins[a] {
					t.Fatalf("abandoned chunk %d still pinned", a)
				}
			}
			if len(p.CkptPins) != len(p.AnchorAddrs) {
				t.Fatalf("%d pins, want the anchor's %d", len(p.CkptPins), len(p.AnchorAddrs))
			}
			programs := p.Dev.Stats().PagePrograms
			p.Sched.Drain(now)
			if p.Dev.Stats().PagePrograms != programs || p.Stats().Checkpoints != 1 || p.Sched.Pending() != 0 {
				t.Fatal("the abandoned checkpoint task went on after Close")
			}
		})
	}
}

// TestCloseFailedCheckpointCostsTime: a close-time checkpoint whose second
// chunk fails for good does not fail Close, commits nothing and pins
// nothing, but Close's clock includes the chunk that landed.
func TestCloseFailedCheckpointCostsTime(t *testing.T) {
	p := newFlat(t)
	p.withChunks(t, 3)
	now := p.mustWrite(t, 0, 0, 2, 1)
	p.failAt(nand.OpProgram, p.Dev.Addr(p.HeadSeg, p.HeadIdx+1), nand.ErrDeviceFailed, 0)
	done, err := p.Close(now)
	if err != nil || done <= now {
		t.Fatalf("Close: done %v (from %v), err %v; want the landed chunk's time and no error", done, now, err)
	}
	if st := p.Stats(); st.CheckpointErrors != 1 || st.Checkpoints != 0 || p.Dev.Anchor() != nil || len(p.CkptPins) != 0 {
		t.Fatalf("CheckpointErrors %d, Checkpoints %d, anchor %v, %d pins; want 1, 0, none, 0",
			st.CheckpointErrors, st.Checkpoints, p.Dev.Anchor(), len(p.CkptPins))
	}
	if _, err := p.Close(done); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close: %v, want ErrClosed", err)
	}
}

// TestCloseQueuesNoWork: the close-time checkpoint's chunks cross into a
// fresh segment with the free pool one above ReserveSegments and a
// reclaimable segment in the log — the head advance that starts a clean on
// an open log. Close starts none and leaves nothing queued.
func TestCloseQueuesNoWork(t *testing.T) {
	const reserve = 5
	p := newFlatWith(t, func(c *Config) { c.ReserveSegments = reserve })
	now := p.mustWrite(t, 0, 0, 8, 1)
	now = p.mustWrite(t, now, 0, 8, 2)
	now = p.mustWrite(t, now, 0, 6, 3) // the head two pages short of its end
	now = p.Sched.Drain(now)           // the clean that crossing queued runs
	pps := p.cfg.Nand.PagesPerSegment
	if p.HeadIdx != pps-2 || len(p.FreeSegs) != reserve+1 || p.BestVictim() < 0 || p.CleaningActive() {
		t.Fatalf("setup: head index %d, %d free, best victim %d, cleaning %v; want %d, %d, a victim, none",
			p.HeadIdx, len(p.FreeSegs), p.BestVictim(), p.CleaningActive(), pps-2, reserve+1)
	}
	p.withChunks(t, 3)
	head := p.HeadSeg
	now, err := p.Close(now)
	if err != nil {
		t.Fatal(err)
	}
	if p.HeadSeg == head || p.Stats().Checkpoints != 1 {
		t.Fatalf("setup: the checkpoint did not cross a segment (head %d, %d checkpoints)", p.HeadSeg, p.Stats().Checkpoints)
	}
	if p.CleaningActive() || p.Sched.Pending() != 0 || p.StartCheckpoint(now) {
		t.Fatalf("Close left cleaning %v and %d tasks queued, or a checkpoint can start", p.CleaningActive(), p.Sched.Pending())
	}
}

// TestCloseWithoutPayloadsProgramsNothing: a device that stores no payloads
// can never read a checkpoint back, so neither a background checkpoint nor
// Close writes one, even with sections to write.
func TestCloseWithoutPayloadsProgramsNothing(t *testing.T) {
	p := newFlatWith(t, func(c *Config) { c.Nand.StoreData = false })
	p.withChunks(t, 3)
	now := p.mustWrite(t, 0, 0, 2, 1)
	if p.StartCheckpoint(now) {
		t.Fatal("StartCheckpoint scheduled a checkpoint no recovery could read")
	}
	programs := p.Dev.Stats().PagePrograms
	if _, err := p.Close(now); err != nil {
		t.Fatal(err)
	}
	if st := p.Stats(); p.Dev.Stats().PagePrograms != programs || st.Checkpoints != 0 || st.CheckpointErrors != 0 {
		t.Fatalf("Close programmed %d pages, %d checkpoints, %d errors; want none",
			p.Dev.Stats().PagePrograms-programs, st.Checkpoints, st.CheckpointErrors)
	}
}

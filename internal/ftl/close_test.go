package ftl

import (
	"errors"
	"testing"

	"iosnap/internal/faultinject"
	"iosnap/internal/model"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// TestCheckpointProgramsNothing: a vanilla checkpoint carries nothing, so a
// background one and the close-time one program no chunk and leave no page
// pinned, even on a device that stores payloads.
func TestCheckpointProgramsNothing(t *testing.T) {
	f := newTestFTL(t)
	_, now := fillAndChurn(t, f, 300, 60, 3)
	before := f.Device().Stats().PagePrograms
	if !f.StartCheckpoint(now) {
		t.Fatal("StartCheckpoint scheduled nothing")
	}
	now = f.Scheduler().Drain(now)
	if _, err := f.Close(now); err != nil {
		t.Fatal(err)
	}
	if after := f.Device().Stats().PagePrograms; after != before {
		t.Fatalf("checkpoints programmed %d pages", after-before)
	}
	if st := f.Stats(); st.Checkpoints != 2 || st.CheckpointChunks != 0 || len(f.CkptPins) != 0 || len(f.MapPins) != 0 {
		t.Fatalf("%d checkpoints of %d chunks, %d chunk pins, %d map pins; want 2, 0, 0, 0",
			st.Checkpoints, st.CheckpointChunks, len(f.CkptPins), len(f.MapPins))
	}
}

// TestCheckpointChunkFailureSealsHead: a permanent program failure armed
// across a vanilla checkpoint cannot fail it — the checkpoint programs no
// chunk, so it commits, consumes no fault and leaves the head where it was.
// The failure lands on the next data write, which seals the head off the
// failing segment, leaving the FTL writable and a retried checkpoint able
// to commit.
func TestCheckpointChunkFailureSealsHead(t *testing.T) {
	f := newTestFTL(t)
	im, now := fillAndChurn(t, f, 150, 30, 35)
	ss := f.SectorSize()
	oldHead := f.HeadSeg
	plan := faultinject.NewPlan(0, faultinject.Rule{
		Kind: faultinject.KindTransient, Op: nand.OpProgram, Seg: faultinject.AnySeg,
		AfterN: 1, Times: 10, // outlasts the retry budget: a permanent failure
	})
	plan.Arm(f.Device())
	if !f.StartCheckpoint(now) {
		t.Fatal("StartCheckpoint refused")
	}
	now = f.Scheduler().Drain(now)
	if st := f.Stats(); st.CheckpointErrors != 0 || st.Checkpoints != 1 {
		t.Fatalf("checkpoint under an armed program failure: %d checkpoints, %d errors; want 1, 0",
			st.Checkpoints, st.CheckpointErrors)
	}
	if len(plan.Fired()) != 0 || f.HeadSeg != oldHead {
		t.Fatalf("checkpoint programmed: fired %v, head %d -> %d", plan, oldHead, f.HeadSeg)
	}
	if _, err := f.Write(now, 2, sectorPattern(ss, 2, 87)); !errors.Is(err, nand.ErrTransient) {
		t.Fatalf("write onto the failing segment: %v, want ErrTransient", err)
	}
	plan.Disarm(f.Device())
	if f.HeadSeg == oldHead {
		t.Fatal("head not sealed off the failing segment")
	}
	// Still writable, and a retried checkpoint commits.
	d, err := f.Write(now, 2, model.Sectors(ss, 2, 1, 1000))
	if err != nil {
		t.Fatalf("write after sealed head: %v", err)
	}
	im.Write(2, 1000)
	now = d
	if !f.StartCheckpoint(now) {
		t.Fatal("retry StartCheckpoint refused")
	}
	now = f.Scheduler().Drain(now)
	if f.Stats().Checkpoints != 2 {
		t.Fatalf("retried checkpoint did not commit: %+v", f.Stats())
	}
	if err := im.Verify(ss, model.At(f.Read, now)); err != nil {
		t.Fatalf("after the sealed head: %v", err)
	}
}

// TestCloseStartsNoBackgroundWork: Close with the pool at the cleaning
// reserve and the head two pages short of its segment's end, where a
// close-time checkpoint that programmed chunks would cross into a fresh
// segment and schedule a clean. The vanilla checkpoint programs nothing, so
// the head stays put and nothing is left queued on a scheduler nobody runs
// again. A clean already queued when Close runs is cancelled: draining
// afterwards programs and erases nothing.
func TestCloseStartsNoBackgroundWork(t *testing.T) {
	nc := testConfig().Nand
	nc.PagesPerSegment, nc.Segments = 64, 16
	cfg := DefaultConfig(nc)
	cfg.GCWindow = 10 * sim.Millisecond
	// atReserve returns an FTL whose free pool is down to the reserve, with
	// all cleaning drained.
	atReserve := func() (*FTL, sim.Time) {
		f, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		ss := f.SectorSize()
		rng := sim.NewRNG(1)
		now := sim.Time(0)
		for f.FreeSegments() > cfg.ReserveSegments {
			lba := rng.Int63n(f.Sectors())
			if now, err = f.Write(now, lba, sectorPattern(ss, lba, 1)); err != nil {
				t.Fatal(err)
			}
		}
		return f, f.Scheduler().Drain(now)
	}

	f, now := atReserve()
	ss := f.SectorSize()
	var err error
	for lba := int64(0); f.HeadIdx < nc.PagesPerSegment-2; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if f.CleaningActive() {
		t.Fatal("setup not quiescent")
	}
	head, idx := f.HeadSeg, f.HeadIdx
	if _, err := f.Close(now); err != nil {
		t.Fatal(err)
	}
	if f.HeadSeg != head || f.HeadIdx != idx {
		t.Fatalf("close-time checkpoint moved the head from %d/%d to %d/%d", head, idx, f.HeadSeg, f.HeadIdx)
	}
	if f.CleaningActive() || f.Scheduler().Pending() != 0 {
		t.Fatalf("Close left cleaning=%v pending=%d", f.CleaningActive(), f.Scheduler().Pending())
	}

	// Cross a segment boundary at the reserve, which queues a clean, and
	// close before the scheduler runs it.
	f, now = atReserve()
	start := f.HeadSeg
	for lba := int64(0); f.HeadSeg == start; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if !f.CleaningActive() {
		t.Fatal("setup: crossing a segment at the reserve queued no clean")
	}
	if now, err = f.Close(now); err != nil {
		t.Fatal(err)
	}
	if f.CleaningActive() {
		t.Fatal("Close left the queued clean active")
	}
	before := f.Device().Stats()
	f.Scheduler().Drain(now)
	if after := f.Device().Stats(); after.PagePrograms != before.PagePrograms || after.Erases != before.Erases {
		t.Fatalf("cancelled clean ran after Close: %d programs, %d erases",
			after.PagePrograms-before.PagePrograms, after.Erases-before.Erases)
	}
	if f.Scheduler().Pending() != 0 {
		t.Fatalf("%d tasks still pending after the drain", f.Scheduler().Pending())
	}
}

// TestCloseWithoutPayloadsProgramsNothing: a device that stores no payloads
// can never read a checkpoint back, so Close must not spend programs (and
// pinned pages) writing one.
func TestCloseWithoutPayloadsProgramsNothing(t *testing.T) {
	cfg := testConfig()
	cfg.Nand.StoreData = false
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	now, err := f.Write(0, 5, sectorPattern(f.SectorSize(), 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	before := f.Device().Stats().PagePrograms
	if _, err := f.Close(now); err != nil {
		t.Fatal(err)
	}
	if after := f.Device().Stats().PagePrograms; after != before {
		t.Fatalf("Close programmed %d pages on a device that stores no payloads", after-before)
	}
	if st := f.Stats(); st.Checkpoints != 0 || st.CheckpointErrors != 0 {
		t.Fatalf("Close on a fingerprint-mode device: %d checkpoints, %d errors", st.Checkpoints, st.CheckpointErrors)
	}
	if f.StartCheckpoint(now) {
		t.Fatal("StartCheckpoint scheduled a checkpoint no recovery could read")
	}
}

package iosnap

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"iosnap/internal/faultinject"
	"iosnap/internal/header"
	"iosnap/internal/nand"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
)

func tortureConfig() Config {
	cfg := testConfig()
	cfg.Nand.Segments = 32
	return cfg
}

// actLimit keeps background activations alive across many workload steps so
// crash rules can land mid-scan.
var actLimit = ratelimit.WorkSleep{Work: 10 * sim.Microsecond, Sleep: 5 * sim.Millisecond}

func TestTortureCleanRun(t *testing.T) {
	for _, seed := range []uint64{1, 7, 1234} {
		rep, err := Torture(tortureConfig(), TortureOptions{Seed: seed, Steps: 900})
		if err != nil {
			t.Fatalf("seed %d: %v (%s)", seed, err, rep)
		}
		if rep.Checks == 0 {
			t.Fatalf("seed %d: no invariant checks ran", seed)
		}
		if rep.OpErrors != 0 {
			t.Fatalf("seed %d: %d op errors without any fault plan", seed, rep.OpErrors)
		}
	}
}

// TestTortureGCCopyError is acceptance plan 1: a program error injected into
// the cleaner's copy-forward. The clean aborts, the error lands in Stats
// instead of being swallowed, the victim stays cleanable, and the workload
// (including the log head the failed copy allocated from) keeps going.
func TestTortureGCCopyError(t *testing.T) {
	fired := false
	for _, seed := range []uint64{3, 11, 21} {
		plan := faultinject.GCCopyError(5)
		rep, err := Torture(tortureConfig(), TortureOptions{Seed: seed, Steps: 900, Plan: plan})
		if err != nil {
			t.Fatalf("seed %d: %v (%s)", seed, err, rep)
		}
		if len(rep.Fired) == 0 {
			continue // this seed never reached 5 copy-forwards
		}
		fired = true
		// The copy error surfaced somewhere: either a background clean
		// recorded it in Stats, or a forced synchronous clean propagated it
		// to the writer as an op error. Silent swallowing shows up as
		// neither.
		if rep.FinalStats.GCErrors == 0 && rep.OpErrors == 0 {
			t.Fatalf("seed %d: injected GC copy error vanished (%s)", seed, rep)
		}
		if rep.FinalStats.GCErrors > 0 && rep.FinalStats.GCLastErr == "" {
			t.Fatalf("seed %d: GCErrors=%d but GCLastErr empty", seed, rep.FinalStats.GCErrors)
		}
	}
	if !fired {
		t.Fatal("no seed ever triggered the GC copy fault; plan untested")
	}
}

// TestTortureTornSnapshotNote is acceptance plan 2: power fails while a
// snapshot-create note is being programmed, leaving a torn header at the log
// tail. Recovery must tolerate the garbage page, count it, and restore a
// consistent device on which all previously acknowledged state survives.
func TestTortureTornSnapshotNote(t *testing.T) {
	fired := false
	for _, seed := range []uint64{5, 9, 31} {
		plan := faultinject.TornNote(header.TypeSnapCreate, 2)
		rep, err := Torture(tortureConfig(), TortureOptions{Seed: seed, Steps: 900, Plan: plan})
		if err != nil {
			t.Fatalf("seed %d: %v (%s)", seed, err, rep)
		}
		if len(rep.Fired) == 0 {
			continue // fewer than 2 snapshot creates under this seed
		}
		fired = true
		if rep.Crashes != 1 || rep.Recoveries != 1 {
			t.Fatalf("seed %d: torn note must crash+recover exactly once: %s", seed, rep)
		}
		if rep.FinalStats.TornPagesSkipped == 0 {
			t.Fatalf("seed %d: recovery did not report the torn page (%s)", seed, rep)
		}
	}
	if !fired {
		t.Fatal("no seed ever tore a snapshot note; plan untested")
	}
}

// TestTortureCrashMidActivation is acceptance plan 3: power cut during an
// activation's log scan. The scan fault must propagate out of the Activation
// (not hang or succeed spuriously), and recovery must restore invariants.
func TestTortureCrashMidActivation(t *testing.T) {
	fired := false
	for _, seed := range []uint64{2, 13, 27} {
		plan := faultinject.CrashAtScan(2)
		rep, err := Torture(tortureConfig(), TortureOptions{
			Seed: seed, Steps: 900, Plan: plan, ActivationLimit: actLimit,
		})
		if err != nil {
			t.Fatalf("seed %d: %v (%s)", seed, err, rep)
		}
		if len(rep.Fired) == 0 {
			continue // no activation scanned 2 segments under this seed
		}
		fired = true
		if rep.Activations == 0 {
			t.Fatalf("seed %d: crash-at-scan fired without an activation: %s", seed, rep)
		}
		if rep.Crashes != 1 || rep.Recoveries != 1 {
			t.Fatalf("seed %d: want exactly one crash+recovery: %s", seed, rep)
		}
	}
	if !fired {
		t.Fatal("no seed ever crashed mid-activation; plan untested")
	}
}

// TestTortureRandomFaultNoise floods every operation class with seeded
// random errors: no crash, just a device that fails constantly. Every
// operation must either error or keep the model exact, and invariants must
// hold throughout.
func TestTortureRandomFaultNoise(t *testing.T) {
	plan := faultinject.RandomFaults(99, 0.02)
	rep, err := Torture(tortureConfig(), TortureOptions{Seed: 17, Steps: 600, Plan: plan})
	if err != nil {
		t.Fatalf("%v (%s)", err, rep)
	}
	if rep.OpErrors == 0 {
		t.Fatalf("2%% fault rate over 600 steps produced zero op errors (%s)", rep)
	}
}

// TestTortureDeterministicBySeed re-runs a faulted torture and demands an
// identical report — the EXPERIMENTS.md reproducibility contract.
func TestTortureDeterministicBySeed(t *testing.T) {
	// Include probabilistic read faults: verification sweeps issue reads too,
	// so any map-order dependence in the harness shows up as firings at
	// run-dependent addresses even when the summary counters agree.
	run := func() string {
		plan := faultinject.NewPlan(7,
			faultinject.Rule{Kind: faultinject.KindError, Op: nand.OpCopy, Seg: faultinject.AnySeg, Prob: 0.05},
			faultinject.Rule{Kind: faultinject.KindError, Op: nand.OpRead, Seg: faultinject.AnySeg, Prob: 0.02})
		rep, err := Torture(tortureConfig(), TortureOptions{Seed: 23, Steps: 500, Plan: plan})
		if err != nil {
			t.Fatalf("%v (%s)", err, rep)
		}
		return fmt.Sprintf("%s fired=%v", rep, rep.Fired)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seeds, different runs:\n%s\n%s", a, b)
	}
}

// replChurnPlan injects read-side faults only: transient errors and
// read-path corruption both clear on a re-read, so the retry budget can
// absorb them — the replication path must come through bit-identical
// anyway. (Program-side corruption is genuine data loss and belongs to the
// targeted replicate tests, not a model-checked storm.)
func replChurnPlan(seed uint64) *faultinject.Plan {
	return faultinject.NewPlan(seed,
		faultinject.Rule{Kind: faultinject.KindTransient, Op: nand.OpRead, Seg: faultinject.AnySeg, Prob: 0.01, Times: 1},
		faultinject.Rule{Kind: faultinject.KindCorruptData, Op: nand.OpRead, Seg: faultinject.AnySeg, Prob: 0.01, Times: 1})
}

// TestTortureExportChurn replicates snapshots to a second device while the
// snapshot-lifecycle storm runs and transient + corrupt-data faults hit the
// source's reads. Every committed replication is bit-verified against the
// frozen model inside the harness.
func TestTortureExportChurn(t *testing.T) {
	rep, err := Torture(tortureConfig(), TortureOptions{
		Seed: 42, Steps: 700, Mix: MixExportChurn, Plan: replChurnPlan(11),
	})
	if err != nil {
		t.Fatalf("%v (%s)", err, rep)
	}
	if rep.Replications == 0 {
		t.Fatalf("export-churn run never replicated (%s)", rep)
	}
	if len(rep.Fired) == 0 {
		t.Fatalf("fault plan never fired; storm exercised nothing (%s)", rep)
	}
	if rep.FinalStats.ExportChunks == 0 {
		t.Fatalf("no chunks were ever shipped (%s)", rep)
	}
}

// TestTortureExportChurnCrashes adds power loss: the first plan crashes at
// a header scan (exports and activations both scan), the power-cycle swaps
// in a corrupt-data plan via Replan, and replication must keep working
// against the recovered source with its destination state intact.
func TestTortureExportChurnCrashes(t *testing.T) {
	var done bool
	for seed := uint64(1); seed <= 8 && !done; seed++ {
		rep, err := Torture(tortureConfig(), TortureOptions{
			Seed: seed, Steps: 700, Mix: MixExportChurn,
			Plan: faultinject.CrashAtScan(3),
			Replan: func(cycle int) *faultinject.Plan {
				if cycle == 1 {
					return replChurnPlan(uint64(cycle) * 101)
				}
				return nil
			},
		})
		if err != nil {
			t.Fatalf("seed %d: %v (%s)", seed, err, rep)
		}
		if rep.Crashes >= 1 && rep.Replications >= 2 {
			done = true
		}
	}
	if !done {
		t.Fatal("no seed produced a crash plus post-crash replications")
	}
}

// TestTortureExportChurnDeterministic re-runs the export-churn storm and
// demands an identical report, firings and all — replication must not leak
// map-order nondeterminism into device traffic.
func TestTortureExportChurnDeterministic(t *testing.T) {
	run := func() string {
		rep, err := Torture(tortureConfig(), TortureOptions{
			Seed: 42, Steps: 500, Mix: MixExportChurn, Plan: replChurnPlan(11),
		})
		if err != nil {
			t.Fatalf("%v (%s)", err, rep)
		}
		return fmt.Sprintf("%s fired=%v exported=%d deduped=%d retries=%d",
			rep, rep.Fired, rep.FinalStats.ExportChunks,
			rep.FinalStats.ExportDedupHits, rep.FinalStats.ImportRetries)
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seeds, different runs:\n%s\n%s", a, b)
	}
}

// --- satellite regressions -------------------------------------------------

// TestGCErrorRecordedNotSwallowed: a background clean aborted by a copy
// error leaves ioSnap's CoW validity consistent — every block it moved was
// re-pointed in each epoch holding it — and so does the clean that takes the
// victim again. The engine's share (GCErrors and GCLastErr, the head left
// writable, the victim cleaned later) is logcore's
// TestBackgroundCleanAbortsOnCopyFailure.
func TestGCErrorRecordedNotSwallowed(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	var err error
	for lba := int64(0); lba < 40; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	for lba := int64(0); lba < 20; lba++ { // invalidate some blocks
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 2)); err != nil {
			t.Fatal(err)
		}
	}
	now = f.Sched.Drain(now)

	// Pick a victim that still holds valid data, so the clean must copy.
	pps := int64(f.cfg.Nand.PagesPerSegment)
	victim := -1
	for _, seg := range f.UsedSegments() {
		if seg == f.HeadSeg {
			continue
		}
		if f.vstore.MergeRange(f.vstore.LiveEpochs(), int64(seg)*pps, int64(seg+1)*pps).Count() > 0 {
			victim = seg
			break
		}
	}
	if victim < 0 {
		t.Fatal("no cleanable victim with valid data")
	}
	plan := faultinject.GCCopyError(1)
	plan.Arm(f.Device())
	if err := f.ForceClean(now, victim); err != nil {
		t.Fatal(err)
	}
	now = f.Sched.Drain(now)
	plan.Disarm(f.Device())
	if st := f.Stats(); st.GCErrors != 1 {
		t.Fatalf("setup: GCErrors = %d, want the aborted clean", st.GCErrors)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("inconsistent after GC abort: %v", err)
	}
	if err := f.ForceClean(now, victim); err != nil {
		t.Fatalf("victim not cleanable after abort: %v", err)
	}
	f.Sched.Drain(now)
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestActivationNoteFaultLeaksNoEpoch: if the activate note cannot be
// written, beginActivation must not leave a live epoch behind (a leaked
// epoch pins every snapshot block forever).
func TestActivationNoteFaultLeaksNoEpoch(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	var err error
	for lba := int64(0); lba < 8; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	snap, now, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	epochsBefore := len(f.vstore.Epochs())
	counterBefore := f.epochCounter
	plan := faultinject.NewPlan(0, faultinject.Rule{
		Kind: faultinject.KindError, Op: nand.OpProgram, Seg: faultinject.AnySeg, AfterN: 1,
	})
	plan.Arm(f.Device())
	if _, _, err := f.Activate(now, snap.ID, noLimit, false); err == nil {
		t.Fatal("activation with failing note write must error")
	}
	plan.Disarm(f.Device())
	if got := len(f.vstore.Epochs()); got != epochsBefore {
		t.Fatalf("epoch leaked: %d validity epochs, want %d", got, epochsBefore)
	}
	if f.epochCounter != counterBefore {
		t.Fatalf("epoch counter leaked: %d, want %d", f.epochCounter, counterBefore)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The snapshot is still activatable once the fault clears.
	vw, now, err := f.ActivateSync(now, snap.ID, noLimit, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vw.Deactivate(now); err != nil {
		t.Fatal(err)
	}
}

// TestCancelRacingBlockMove: cancel an in-flight activation, then force the
// cleaner to move blocks the scan had collected. onBlockMoved after Cancel
// must be a no-op (no panic, no resurrection of the cancelled epoch).
func TestCancelRacingBlockMove(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	var err error
	for lba := int64(0); lba < 30; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	snap, now, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	for lba := int64(0); lba < 15; lba++ { // make garbage so a clean has work
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 2)); err != nil {
			t.Fatal(err)
		}
	}
	now = f.Sched.Drain(now)

	act, now, err := f.Activate(now, snap.ID, actLimit, false)
	if err != nil {
		t.Fatal(err)
	}
	// Let the scan make partial progress, then cancel mid-flight.
	f.Sched.RunUntil(now.Add(6 * sim.Millisecond))
	if act.Ready() {
		t.Skip("activation finished before cancel; tighten actLimit")
	}
	if err := act.Cancel(now); !errors.Is(err, ErrCancelled) {
		t.Fatalf("Cancel = %v", err)
	}
	// Now force a clean that moves snapshot blocks; the cancelled
	// activation must ignore onBlockMoved deliveries.
	victim := -1
	for _, seg := range f.UsedSegments() {
		if seg != f.HeadSeg {
			victim = seg
			break
		}
	}
	if victim >= 0 {
		if err := f.ForceClean(now, victim); err != nil {
			t.Fatal(err)
		}
	}
	now = f.Sched.Drain(now)
	if _, err := act.View(); err == nil {
		t.Fatal("cancelled activation produced a view")
	}
	if f.vstore.Exists(act.viewEpoch) && !f.vstore.Deleted(act.viewEpoch) {
		t.Fatal("cancelled activation's epoch still live")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Later activations of the same snapshot still work.
	vw, now, err := f.ActivateSync(now, snap.ID, noLimit, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := vw.Deactivate(now); err != nil {
		t.Fatal(err)
	}
}

// TestDeactivateWritableViewAfterSnapshot: deactivating a writable view
// whose epoch was frozen into a snapshot must not delete the snapshotted
// epoch — only the fresh continuation epoch dies.
func TestDeactivateWritableViewAfterSnapshot(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now := sim.Time(0)
	var err error
	for lba := int64(0); lba < 10; lba++ {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	base, now, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	vw, now, err := f.ActivateSync(now, base.ID, noLimit, true)
	if err != nil {
		t.Fatal(err)
	}
	for lba := int64(0); lba < 5; lba++ {
		if now, err = vw.Write(now, lba, sectorPattern(ss, lba, 7)); err != nil {
			t.Fatal(err)
		}
	}
	// Freeze the view's writes into a snapshot, then write a little more
	// (into the continuation epoch) and deactivate.
	forked, now, err := vw.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	if now, err = vw.Write(now, 6, sectorPattern(ss, 6, 9)); err != nil {
		t.Fatal(err)
	}
	if now, err = vw.Deactivate(now); err != nil {
		t.Fatal(err)
	}
	if !f.vstore.Exists(forked.Epoch) || f.vstore.Deleted(forked.Epoch) {
		t.Fatal("deactivation deleted the snapshotted epoch")
	}
	now = f.Sched.Drain(now)
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The forked snapshot reads back the view's frozen writes.
	fv, now, err := f.ActivateSync(now, forked.ID, noLimit, false)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ss)
	for lba := int64(0); lba < 5; lba++ {
		if _, err := fv.Read(now, lba, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, sectorPattern(ss, lba, 7)) {
			t.Fatalf("forked snapshot LBA %d lost the view's write", lba)
		}
	}
	// The un-snapshotted continuation write (LBA 6) is garbage by design:
	// it must NOT appear in the forked snapshot.
	if _, err := fv.Read(now, 6, buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf, sectorPattern(ss, 6, 9)) {
		t.Fatal("un-snapshotted continuation write leaked into the snapshot")
	}
	if _, err := fv.Deactivate(now); err != nil {
		t.Fatal(err)
	}
}

// wearTortureConfig is the media-failure acceptance geometry: tortureConfig
// plus a wear-out model that makes erases likely to fail once a segment
// passes a low erase budget, and an armed background scrubber.
func wearTortureConfig() Config {
	cfg := tortureConfig()
	cfg.Nand.WearOutThreshold = 6
	cfg.Nand.WearOutProb = 0.3
	cfg.Nand.WearSeed = 99
	cfg.ScrubInterval = 2 * sim.Millisecond
	cfg.ScrubLimit = ratelimit.WorkSleep{Work: 50 * sim.Microsecond, Sleep: 2 * sim.Millisecond}
	return cfg
}

// wearTransientPlan is the acceptance fault plan: 1% transient read/program
// faults plus a power cut partway through the cycle's programs.
func wearTransientPlan(cycle int) *faultinject.Plan {
	return faultinject.NewPlan(uint64(cycle)*7919+13,
		faultinject.Rule{Name: "transient-read", Kind: faultinject.KindTransient,
			Op: nand.OpRead, Seg: faultinject.AnySeg, Prob: 0.01, Times: 1},
		faultinject.Rule{Name: "transient-program", Kind: faultinject.KindTransient,
			Op: nand.OpProgram, Seg: faultinject.AnySeg, Prob: 0.01, Times: 1},
		faultinject.Rule{Name: "crash", Kind: faultinject.KindCrash,
			Op: nand.OpProgram, Seg: faultinject.AnySeg, AfterN: 120},
	)
}

// TestTortureWearOutMultiCrash is the media-failure acceptance run: wear-out
// erase failures, 1% transient faults, an armed scrubber, and at least three
// crash/recover cycles — with zero invariant violations and zero content
// mismatches. ErrOutOfSpace is tolerated only as graceful degradation (an
// op error), never as corruption.
func TestTortureWearOutMultiCrash(t *testing.T) {
	rep, err := Torture(wearTortureConfig(), TortureOptions{
		Seed:  5,
		Steps: 1500,
		Plan:  wearTransientPlan(0),
		Replan: func(cycle int) *faultinject.Plan {
			if cycle >= 3 {
				return nil // fault-free tail so the final verify is clean
			}
			return wearTransientPlan(cycle)
		},
		ActivationLimit: actLimit,
	})
	if err != nil {
		t.Fatalf("%v (%s)", err, rep)
	}
	if rep.Crashes < 3 || rep.Recoveries < 3 {
		t.Fatalf("wanted >=3 crash/recover cycles, got %d/%d (%s)", rep.Crashes, rep.Recoveries, rep)
	}
	if len(rep.Fired) == 0 {
		t.Fatalf("no faults fired; plan untested (%s)", rep)
	}
	// FinalStats counters reset at every recovery and the tail is fault-free,
	// so retry absorption is asserted through the cumulative fired log: the
	// transient rules hit, yet the run stayed error-free end to end.
	transients := 0
	for _, fi := range rep.Fired {
		if fi.Rule == "transient-read" || fi.Rule == "transient-program" {
			transients++
		}
	}
	if transients == 0 {
		t.Fatalf("transient rules never fired: %v", rep.Fired)
	}
	st := rep.FinalStats
	t.Logf("torture: %s transientsFired=%d mediaFailures=%d retired=%d rescued=%d scrubPasses=%d degraded=%v",
		rep, transients, st.MediaFailures, st.SegmentsRetired, st.RescuedPages, st.ScrubPasses, st.Degraded)
}

// TestTortureWearOutDeterministic: the acceptance plan is fully reproducible
// — same seeds, same report, fired faults and all.
func TestTortureWearOutDeterministic(t *testing.T) {
	run := func() (string, error) {
		rep, err := Torture(wearTortureConfig(), TortureOptions{
			Seed: 17, Steps: 700, Plan: wearTransientPlan(0),
			Replan: func(cycle int) *faultinject.Plan {
				if cycle >= 2 {
					return nil
				}
				return wearTransientPlan(cycle)
			},
		})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s fired=%v stats=%+v", rep, rep.Fired, rep.FinalStats), nil
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("wear-out torture not deterministic:\n%s\n%s", a, b)
	}
}

// TestTortureCrashDuringCheckpoint: periodic checkpoints run underneath the
// randomized snapshot workload, and power dies right after a checkpoint
// chunk lands — several cycles, rotating which of the stream's first three
// chunks is the last to survive, over eight seeds. Every recovery must come
// up from a complete generation or the full scan with all acknowledged state
// intact.
func TestTortureCrashDuringCheckpoint(t *testing.T) {
	cfg := tortureConfig()
	cfg.CheckpointInterval = 500 * sim.Microsecond
	for seed := uint64(1); seed <= 8; seed++ {
		rep, err := Torture(cfg, TortureOptions{
			Seed:            seed,
			Steps:           1500,
			Plan:            faultinject.CrashAtChunk(1),
			Replan:          ckptCrashReplan,
			ActivationLimit: actLimit,
		})
		if err != nil {
			t.Fatalf("seed %d: %v (%s)", seed, err, rep)
		}
		if rep.Crashes < 2 || rep.Recoveries != rep.Crashes {
			t.Fatalf("seed %d: wanted >=2 clean crash/recover cycles, got %d/%d (%s)", seed, rep.Crashes, rep.Recoveries, rep)
		}
		st := rep.FinalStats
		t.Logf("seed %d: %s tailBounded=%v fallbacks=%d ckpts=%d ckptErrors=%d",
			seed, rep, st.RecoveryTailBounded, st.RecoveryFallbacks, st.Checkpoints, st.CheckpointErrors)
	}
}

// ckptCrashReplan crashes at the second, third, then first chunk of a later
// checkpoint, and leaves a fault-free tail after four cycles so the final
// verify is clean.
func ckptCrashReplan(cycle int) *faultinject.Plan {
	if cycle >= 4 {
		return nil
	}
	return faultinject.CrashAtChunk(1 + int64(cycle%3))
}

// TestTortureCheckpointChurn: periodic checkpoints under the full
// snapshot-churn mix with no faults at all — generations commit, supersede
// each other, and get stamped stale by cleaning, while every invariant
// check (including checkpoint-pin accounting) stays green.
func TestTortureCheckpointChurn(t *testing.T) {
	cfg := tortureConfig()
	cfg.CheckpointInterval = 1 * sim.Millisecond
	rep, err := Torture(cfg, TortureOptions{
		Seed:  77,
		Steps: 1200,
		Mix:   MixSnapshotChurn,
	})
	if err != nil {
		t.Fatalf("%v (%s)", err, rep)
	}
	if rep.FinalStats.Checkpoints < 2 {
		t.Fatalf("periodic checkpointing committed %d generations under churn (%s)",
			rep.FinalStats.Checkpoints, rep)
	}
}

package iosnap

import (
	"errors"
	"fmt"

	"iosnap/internal/faultinject"
	"iosnap/internal/model"
	"iosnap/internal/ratelimit"
	"iosnap/internal/retry"
	"iosnap/internal/sim"
)

// The torture harness drives a randomized workload — writes, trims, snapshot
// create/delete, background activations, view writes, deactivations, forced
// cleans — against an FTL whose device may have a fault plan armed. Every
// operation either reports an error or leaves the device serving what the
// content model (internal/model) says; periodically and after every crash
// recovery, CheckInvariants holds and the model reads back. The same
// TortureOptions reproduce the same run, faults and all.

// TortureOptions configures one torture run.
type TortureOptions struct {
	Seed  uint64 // workload RNG seed
	Steps int    // operations to attempt (default 800)
	Space int64  // LBA working-set size (default 100)

	// Plan, when non-nil, is armed on the device before the workload starts.
	// When a crash rule fires the harness power-cycles: the in-RAM FTL and
	// scheduler are abandoned, the plan is disarmed, and the device is
	// crash-recovered with Recover.
	Plan *faultinject.Plan

	// Replan, when non-nil, supplies a fresh fault plan after each
	// power-cycle (cycle counts from 1); returning nil leaves the rest of
	// the run fault-free. Without Replan the first crash disarms faults.
	Replan func(cycle int) *faultinject.Plan

	// CheckEvery runs CheckInvariants after this many steps (default 100).
	CheckEvery int

	// ActivationLimit rate-limits background activations so they stay
	// in-flight across workload steps (zero = unthrottled, activations
	// complete almost immediately).
	ActivationLimit ratelimit.WorkSleep

	// Mix is the operation mix (default MixBase).
	Mix TortureMix
}

// TortureMix selects a torture run's operation mix.
type TortureMix int

const (
	// MixBase is mostly writes, with at most three live snapshots.
	MixBase TortureMix = iota
	// MixSnapshotChurn storms the snapshot lifecycle: up to six live
	// snapshots, more creates, deletes, activations and forced cleans, and
	// scrub passes, each of which invalidates the cleaner's cached merges
	// (gcacct.go).
	MixSnapshotChurn
	// MixExportChurn adds replication of a live snapshot to a fault-free
	// device (incremental against the last generation while it lives),
	// bit-verified against the frozen image. The export reads the source
	// with the fault plan armed.
	MixExportChurn
	// MixMapThrash widens the data bands under snapshot churn, so a tiny
	// MapCachePages and a large Space fault, flush and evict translation
	// pages all run long.
	MixMapThrash
)

// opCuts are the cumulative percentile cut-points of the operation mix; an
// op draw in [0,100) lands in the first band it is below (subject to each
// band's guard, falling through to later bands like the switch always did).
type opCuts struct {
	write, trim, create, del, activate, viewWrite, deact, force, scrub, repl int
	maxSnaps                                                                 int
}

func (m TortureMix) cuts() opCuts {
	switch m {
	case MixSnapshotChurn:
		return opCuts{write: 20, trim: 26, create: 44, del: 58, activate: 70,
			viewWrite: 74, deact: 80, scrub: 96, repl: 96, force: 90, maxSnaps: 6}
	case MixExportChurn:
		return opCuts{write: 20, trim: 26, create: 42, del: 54, activate: 64,
			viewWrite: 68, deact: 74, force: 82, scrub: 86, repl: 94, maxSnaps: 6}
	case MixMapThrash:
		return opCuts{write: 30, trim: 38, create: 50, del: 60, activate: 68,
			viewWrite: 72, deact: 76, force: 82, scrub: 86, repl: 86, maxSnaps: 6}
	}
	// scrub == force and repl == force leave the scrub and replication
	// bands empty.
	return opCuts{write: 45, trim: 52, create: 60, del: 66, activate: 74,
		viewWrite: 78, deact: 83, force: 88, scrub: 88, repl: 88, maxSnaps: 3}
}

// TortureReport summarizes a torture run.
type TortureReport struct {
	Steps        int                 // operations attempted
	OpErrors     int64               // operations that returned an error (faults doing their job)
	Crashes      int64               // power losses taken
	Recoveries   int64               // successful crash recoveries
	Checks       int64               // CheckInvariants passes
	Activations  int64               // background activations started
	Replications int64               // snapshot replications committed and bit-verified
	Fired        []faultinject.Fired // accumulated across all armed plans
	FinalStats   Stats
	FinalDigest  uint64 // the final device's StateDigest (pinned by the oracle table)
}

func (r *TortureReport) String() string {
	return fmt.Sprintf("steps=%d opErrors=%d crashes=%d recoveries=%d checks=%d repls=%d gcErrors=%d torn=%d",
		r.Steps, r.OpErrors, r.Crashes, r.Recoveries, r.Checks, r.Replications,
		r.FinalStats.GCErrors, r.FinalStats.TornPagesSkipped)
}

// tortureRun owns the mutable state of one run.
type tortureRun struct {
	opt  TortureOptions
	cfg  Config
	f    *FTL
	rng  *sim.RNG
	now  sim.Time
	rep  *TortureReport
	m    *model.Model[SnapshotID] // active and frozen content
	act  *Activation              // in-flight background activation
	view *View                    // one live activated view
	vmod *model.Image             // its content

	dst      *FTL        // replication destination (fault-free, lazily built)
	repl     *Replicator // replication driver; survives power cycles
	lastRepl SnapshotID  // snapshot whose image is the committed generation

	// plan is the armed fault plan: opt.Plan, then each Replan, nil once
	// faults are done. Its Crashed() stays true forever, so crashHandled
	// marks its crash power-cycled until Replan arms the next plan.
	plan         *faultinject.Plan
	crashHandled bool
}

// Torture runs the randomized fault workload and returns its report. A
// non-nil error means a real bug: an invariant violation, content served
// wrongly without an error, or a failed crash recovery — never a fault
// "working as injected".
func Torture(cfg Config, opt TortureOptions) (*TortureReport, error) {
	if opt.Steps <= 0 {
		opt.Steps = 800
	}
	if opt.Space <= 0 {
		opt.Space = 100
	}
	if opt.CheckEvery <= 0 {
		opt.CheckEvery = 100
	}
	f, err := New(cfg, nil)
	if err != nil {
		return nil, err
	}
	t := &tortureRun{
		opt:  opt,
		cfg:  cfg,
		f:    f,
		rng:  sim.NewRNG(opt.Seed),
		rep:  &TortureReport{},
		m:    model.New[SnapshotID](),
		plan: opt.Plan,
	}
	if t.plan != nil {
		t.plan.Arm(f.Dev)
	}
	err = t.run()
	t.retirePlan()
	t.rep.FinalStats = t.f.Stats()
	t.rep.FinalDigest = t.f.Dev.StateDigest()
	return t.rep, err
}

// retirePlan disarms the current plan, banking its fired records into the
// cumulative report.
func (t *tortureRun) retirePlan() {
	if t.plan == nil {
		return
	}
	t.rep.Fired = append(t.rep.Fired, t.plan.Fired()...)
	t.plan.Disarm(t.f.Dev)
	t.plan = nil
}

func (t *tortureRun) crashed() bool {
	return !t.crashHandled && t.plan != nil && t.plan.Crashed()
}

// failed tallies an operation that returned an error, or whose program or
// note landed torn as power died: its completion never reached the host,
// so it was never acknowledged.
func (t *tortureRun) failed(err error) bool {
	if err != nil || t.crashed() {
		t.rep.OpErrors++
		return true
	}
	return false
}

func (t *tortureRun) run() error {
	for step := 0; step < t.opt.Steps; step++ {
		t.rep.Steps++
		t.f.Sched.RunUntil(t.now)
		if err := t.turn(step); err != nil {
			return fmt.Errorf("step %d: %w", step, err)
		}
	}
	// Final settle: drain, recover once more if a late fault crashed us,
	// then verify everything.
	t.now = t.f.Sched.Drain(t.now)
	if t.crashed() {
		if err := t.powerCycle(); err != nil {
			return err
		}
	}
	if err := t.check(); err != nil {
		return err
	}
	return t.verifySnapshots()
}

// turn runs one step and, every CheckEvery steps, a check. A crash found
// before, between or after them power-cycles instead and ends the turn.
func (t *tortureRun) turn(step int) error {
	if t.crashed() {
		return t.powerCycle()
	}
	t.reapActivation()
	if err := t.step(step); err != nil {
		return err
	}
	if t.crashed() {
		return t.powerCycle()
	}
	if step%t.opt.CheckEvery != t.opt.CheckEvery-1 {
		return nil
	}
	if t.now = t.f.Sched.Drain(t.now); t.crashed() {
		return t.powerCycle()
	}
	return t.check()
}

// step performs one random operation. Any error return is a harness bug;
// injected faults are absorbed as OpErrors.
func (t *tortureRun) step(step int) error {
	f := t.f
	cut := t.opt.Mix.cuts()
	switch op := t.rng.Intn(100); {
	case op < cut.write: // active write
		lba := t.rng.Int63n(t.opt.Space)
		v := uint64(step + 1)
		done, err := f.Write(t.now, lba, model.Sectors(f.SectorSize(), lba, 1, v))
		if t.failed(err) {
			return nil
		}
		t.m.Active.Write(lba, v)
		t.now = done
	case op < cut.trim: // trim
		lba := t.rng.Int63n(t.opt.Space)
		done, err := f.Trim(t.now, lba, 1)
		if err != nil {
			t.rep.OpErrors++
			return nil
		}
		t.m.Active.Trim(lba)
		t.now = done
	case op < cut.create && len(t.m.IDs()) < cut.maxSnaps: // snapshot create
		snap, done, err := f.CreateSnapshot(t.now)
		if t.failed(err) {
			return nil
		}
		t.now = done
		t.m.Freeze(snap.ID, t.m.Active)
	case op < cut.del && len(t.m.IDs()) > 0: // snapshot delete
		id := t.pickSnap()
		if t.view != nil && t.view.Snapshot().ID == id {
			return nil // keep the activated snapshot's model simple
		}
		if t.act != nil && !t.act.Ready() && t.act.Snapshot().ID == id {
			return nil
		}
		done, err := f.DeleteSnapshot(t.now, id)
		if t.failed(err) { // a torn delete note: the snapshot survives recovery
			return nil
		}
		t.now = done
		t.m.Delete(id)
	case op < cut.activate && len(t.m.IDs()) > 0 && t.act == nil && t.view == nil: // activate
		id := t.pickSnap()
		writable := t.rng.Intn(2) == 0
		act, done, err := f.Activate(t.now, id, t.opt.ActivationLimit, writable)
		if t.failed(err) {
			return nil
		}
		t.now = done
		t.act = act
		t.rep.Activations++
	case op < cut.viewWrite && t.view != nil: // view write
		if !t.view.Writable() {
			return nil
		}
		lba := t.rng.Int63n(t.opt.Space)
		v := uint64(step + 1)
		done, err := t.view.Write(t.now, lba, model.Sectors(f.SectorSize(), lba, 1, v))
		if t.failed(err) {
			return nil
		}
		t.vmod.Write(lba, v)
		t.now = done
	case op < cut.deact && t.view != nil: // deactivate
		done, err := t.view.Deactivate(t.now)
		if t.failed(err) { // on a crash the view dies regardless
			return nil
		}
		t.now = done
		t.view, t.vmod = nil, nil
	case op < cut.force: // forced clean of a random used, non-head segment
		used := f.UsedSegments()
		if len(used) < 2 || f.CleaningActive() {
			return nil
		}
		seg := used[t.rng.Intn(len(used))]
		if seg == f.HeadSeg {
			return nil
		}
		if err := f.ForceClean(t.now, seg); err != nil {
			t.rep.OpErrors++
			return nil
		}
	case op < cut.scrub: // scrub pass (churn mix only)
		f.StartScrub(t.now)
	case op < cut.repl && len(t.m.IDs()) > 0: // replicate a snapshot (export-churn mix)
		return t.replicate()
	default: // verify one active LBA
		lba := t.rng.Int63n(t.opt.Space)
		buf := make([]byte, f.SectorSize())
		done, err := f.Read(t.now, lba, buf)
		if err != nil {
			t.rep.OpErrors++
			return nil
		}
		t.now = done
		if v := t.m.Active.Version(lba); v != 0 && !model.Check(buf, lba, v) {
			return fmt.Errorf("torture: LBA %d served wrong content without error", lba)
		}
	}
	return nil
}

// replicate ships one live snapshot to the fault-free destination device,
// reading the source with the fault plan armed, and bit-verifies a
// committed replica against the frozen image.
func (t *tortureRun) replicate() error {
	if t.repl == nil {
		dst, err := New(t.cfg, nil)
		if err != nil {
			return fmt.Errorf("torture: creating replica device: %w", err)
		}
		t.dst = dst
		t.repl = &Replicator{Src: t.f, Dst: dst, Policy: retry.Default()}
	}
	id := t.pickSnap()
	base := SnapshotID(0)
	if t.repl.Generation() != nil && t.m.Snapshot(t.lastRepl) != nil {
		base = t.lastRepl
	}
	_, done, err := t.repl.Replicate(t.now, id, base)
	if err != nil {
		if t.crashed() || t.planArmed() || errors.Is(err, ErrOutOfSpace) {
			t.rep.OpErrors++
			return nil
		}
		return fmt.Errorf("torture: replicating snapshot %d: %w", id, err)
	}
	t.now = done
	t.lastRepl = id
	t.rep.Replications++
	// The destination runs its own background work (cleaning) off-line.
	t.now = t.dst.Scheduler().Drain(t.now)
	// Bit-verify the replica against the frozen model. Acknowledged frozen
	// content must be served exactly; no fault excuse applies — the plan is
	// armed on the source, and end-to-end integrity is the whole point.
	if err := t.m.Snapshot(id).Verify(t.f.SectorSize(), model.At(t.dst.Read, t.now)); err != nil {
		return fmt.Errorf("torture: replica of snapshot %d: %w", id, err)
	}
	return nil
}

// pickSnap draws a live snapshot from the model's ascending IDs, so fault
// rules fire at the same addresses on every run of a seed.
func (t *tortureRun) pickSnap() SnapshotID {
	ids := t.m.IDs()
	return ids[t.rng.Intn(len(ids))]
}

// reapActivation publishes a finished background activation as the live view.
func (t *tortureRun) reapActivation() {
	if t.act == nil || !t.act.Ready() {
		return
	}
	act := t.act
	t.act = nil
	view, err := act.View()
	if err != nil {
		t.rep.OpErrors++ // a propagated scan fault, by design
		return
	}
	t.view = view
	t.vmod = t.m.Snapshot(act.Snapshot().ID).Fork()
}

// powerCycle models the crash: RAM state (FTL, scheduler, views, in-flight
// activations) is abandoned, power is restored (the plan detaches), and the
// device is recovered from its log. Writes acknowledged before the crash
// must all survive; views and un-noted view writes die by design.
func (t *tortureRun) powerCycle() error {
	t.rep.Crashes++
	t.crashHandled = true
	t.retirePlan()
	t.f.Sched.Reset()
	t.act, t.view, t.vmod = nil, nil, nil
	f2, now2, err := Recover(t.cfg, t.f.Dev, sim.NewScheduler(), t.now)
	if err != nil {
		return fmt.Errorf("torture: crash recovery failed: %w", err)
	}
	t.f = f2
	t.now = now2
	t.rep.Recoveries++
	// Replication state (destination contents, committed generation)
	// survives the source's crash; only the source handle is re-wired to
	// the recovered FTL.
	if t.repl != nil {
		t.repl.Src = f2
	}
	// Snapshots whose create note never became durable are gone; ones that
	// were acknowledged must have survived.
	for _, id := range t.m.IDs() {
		s, ok := f2.tree.Lookup(id)
		if !ok || s.Deleted {
			return fmt.Errorf("torture: acknowledged snapshot %d lost by recovery", id)
		}
	}
	if err := t.check(); err != nil {
		return err
	}
	// Arm the next cycle's plan, if the caller wants more crashes.
	if t.opt.Replan != nil {
		if p := t.opt.Replan(int(t.rep.Crashes)); p != nil {
			t.plan = p
			t.plan.Arm(t.f.Dev)
			t.crashHandled = false
		}
	}
	return nil
}

// check asserts the invariants and the active and view content.
func (t *tortureRun) check() error {
	if err := t.f.CheckInvariants(); err != nil {
		return err
	}
	t.rep.Checks++
	if err := t.m.Active.Verify(t.f.SectorSize(), t.faultedRead(t.f.Read)); err != nil {
		return fmt.Errorf("torture: %w", err)
	}
	// A crash mid-walk ends the check; the step loop recovers.
	if t.view != nil && !t.crashed() {
		if err := t.vmod.Verify(t.f.SectorSize(), t.faultedRead(t.view.Read)); err != nil {
			return fmt.Errorf("torture: view: %w", err)
		}
	}
	return nil
}

// faultedRead is model.At at t.now, excusing what the armed plan injects:
// a fresh crash stops the walk, an injected read error skips the LBA.
func (t *tortureRun) faultedRead(read func(sim.Time, int64, []byte) (sim.Time, error)) func(int64, []byte) error {
	return func(lba int64, buf []byte) error {
		err := model.At(read, t.now)(lba, buf)
		if err != nil && t.crashed() {
			return model.ErrStop
		}
		if err != nil && t.planArmed() {
			t.rep.OpErrors++
			return model.ErrSkip
		}
		return err
	}
}

// planArmed reports whether the fault plan is still attached to the device,
// i.e. verification reads themselves can draw injected errors.
func (t *tortureRun) planArmed() bool {
	return t.plan != nil && t.f.Dev.FaultHook() == t.plan
}

// verifySnapshots activates every live snapshot (unthrottled, faults
// disarmed) and verifies its frozen content.
func (t *tortureRun) verifySnapshots() error {
	t.retirePlan()
	if t.view != nil {
		if _, err := t.view.Deactivate(t.now); err != nil && !t.exhausted(err) {
			return fmt.Errorf("torture: final deactivate: %w", err)
		}
		t.view, t.vmod = nil, nil
	}
	for _, id := range t.m.IDs() {
		view, done, err := t.f.ActivateSync(t.now, id, ratelimit.WorkSleep{}, false)
		if t.exhausted(err) {
			continue // the snapshot's data is intact but unverifiable this run
		}
		if err != nil {
			return fmt.Errorf("torture: final activation of snapshot %d: %w", id, err)
		}
		t.now = done
		if err := t.m.Snapshot(id).Verify(t.f.SectorSize(), model.At(view.Read, t.now)); err != nil {
			return fmt.Errorf("torture: snapshot %d: %w", id, err)
		}
		if _, err := view.Deactivate(t.now); err != nil && !t.exhausted(err) {
			return fmt.Errorf("torture: snapshot %d deactivate: %w", id, err)
		}
	}
	return nil
}

// exhausted tallies ErrOutOfSpace as an op error: a degraded device cannot
// log a note.
func (t *tortureRun) exhausted(err error) bool {
	if errors.Is(err, ErrOutOfSpace) {
		t.rep.OpErrors++
		return true
	}
	return false
}

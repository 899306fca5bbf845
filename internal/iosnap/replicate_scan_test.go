package iosnap

import (
	"bytes"
	"testing"

	"iosnap/internal/bitmap"
	"iosnap/internal/model"
	"iosnap/internal/ratelimit"
	"iosnap/internal/sim"
	"iosnap/internal/xport"
)

// bruteForceExport is the definition of an export, computed from the two
// frozen models alone: every sector of the target image that the base does
// not hold with the same content is written, every sector the base holds and
// the target does not is deleted. A full export (base nil) writes the whole
// target image.
func bruteForceExport(f *FTL, target, base *Snapshot, baseManifestID uint64, tgtModel, baseModel *model.Image) (*xport.Manifest, []byte) {
	ss := f.SectorSize()
	m := &xport.Manifest{SnapID: uint64(target.ID), SectorSize: ss, Sectors: f.Sectors()}
	if base != nil {
		m.BaseSnapID, m.BaseID = uint64(base.ID), baseManifestID
	}
	var shipped [][]byte
	for _, lba := range tgtModel.LBAs() {
		v := tgtModel.Version(lba)
		if base != nil && baseModel.Version(lba) == v {
			continue
		}
		data := model.Sectors(ss, lba, 1, v)
		m.Writes = append(m.Writes, xport.Entry{LBA: uint64(lba), Hash: xport.HashChunk(data)})
		shipped = append(shipped, data)
	}
	if base != nil {
		for _, lba := range baseModel.LBAs() {
			if tgtModel.Version(lba) == 0 {
				m.Deletes = append(m.Deletes, uint64(lba))
			}
		}
	}
	w := xport.NewStreamWriter(m)
	for i, e := range m.Writes {
		w.AddChunk(e.LBA, shipped[i])
	}
	return m, w.Close()
}

// epochMoves counts the blocks of one frozen epoch the cleaner carried away
// between two looks: a frozen epoch's bits change only when a block of it is
// re-pointed, which clears the bit at the old address.
type epochMoves struct{ prev *bitmap.Bitmap }

func (m *epochMoves) look(f *FTL, e bitmap.Epoch) int {
	cur := bitmap.New(f.cfg.Nand.TotalPages())
	f.vstore.ReadRangeInto(e, 0, cur.Len(), cur)
	moved := 0
	if m.prev != nil {
		for i, ok := m.prev.NextSet(0); ok; i, ok = m.prev.NextSet(i + 1) {
			if !cur.Test(i) {
				moved++
			}
		}
	}
	m.prev = cur
	return moved
}

// exportMoves counts, from outside, the target and base blocks the cleaner
// moved while an export was scanning and while it was reading.
type exportMoves struct {
	tgtScan, tgtRead, baseScan, baseRead int
	tgt, base                            epochMoves
	wasScanning                          bool
	gcCopied                             int64 // the cleaner's copy count at the last look
}

func (m *exportMoves) observe(x *Export) {
	if x.Done() {
		return
	}
	scanning := x.segCursor < len(x.scanList)
	if x.f.stats.GCCopied == m.gcCopied && m.tgt.prev != nil {
		m.wasScanning = scanning
		return // nothing moved since
	}
	m.gcCopied = x.f.stats.GCCopied
	tgt := m.tgt.look(x.f, x.snap.Epoch)
	base := 0
	if x.base != nil {
		base = m.base.look(x.f, x.base.Epoch)
	}
	switch {
	case m.wasScanning && scanning:
		m.tgtScan += tgt
		m.baseScan += base
	case !m.wasScanning && !scanning:
		m.tgtRead += tgt
		m.baseRead += base
	}
	m.wasScanning = scanning
}

// TestExportMatchesBruteForce is the export twin of
// TestActivationMatchesBruteForce: on 16-page and 256-page segments, with the
// full and the selective scan list, full and incremental rate-limited exports
// run on the scheduler under overwrites that make the cleaner move target
// and base blocks while the export scans and while it reads. The manifest and
// the transfer stream must equal the brute-force diff of the two frozen
// models, byte for byte, and every re-point path must have been taken.
func TestExportMatchesBruteForce(t *testing.T) {
	var paths actBranches
	var moves exportMoves
	for _, pps := range []int{16, 256} {
		for _, selective := range []bool{false, true} {
			for seed := uint64(1); seed <= 3; seed++ {
				for _, incremental := range []bool{false, true} {
					nc := testConfig().Nand
					nc.PagesPerSegment = pps
					cfg := DefaultConfig(nc)
					cfg.GCWindow = 10 * sim.Millisecond
					cfg.BitmapPageBits = 64
					cfg.SelectiveScan = selective
					f, err := New(cfg, nil)
					if err != nil {
						t.Fatal(err)
					}
					ss := f.SectorSize()
					space := f.Sectors() / 4 // two snapshots and the churn pin the rest
					rng := sim.NewRNG(seed*1000 + uint64(pps))
					active := model.NewImage()
					now := sim.Time(0)
					write := func(v uint64) {
						t.Helper()
						f.Sched.RunUntil(now)
						lba := rng.Int63n(space)
						d, err := f.Write(now, lba, model.Sectors(ss, lba, 1, v))
						if err != nil {
							t.Fatalf("pps %d seed %d: write: %v", pps, seed, err)
						}
						active.Write(lba, v)
						now = d
					}
					freeze := func() (*Snapshot, *model.Image) {
						t.Helper()
						snap, d, err := f.CreateSnapshot(now)
						if err != nil {
							t.Fatal(err)
						}
						now = d
						return snap, active.Fork()
					}
					// Age the log past its first wrap, freeze the base, overwrite a
					// share of it with versions the base never held, trim a few
					// sectors, and freeze the target.
					for i := 0; i < 20*pps; i++ {
						write(uint64(1 + i%100))
					}
					base, baseModel := freeze()
					for i := 0; i < 4*pps; i++ {
						write(uint64(101 + i%50))
					}
					for i := 0; i < 4; i++ {
						lba := rng.Int63n(space)
						if now, err = f.Trim(now, lba, 1); err != nil {
							t.Fatal(err)
						}
						active.Trim(lba)
					}
					target, tgtModel := freeze()

					opt := ExportOpts{
						Snapshot: target.ID,
						Limit: ratelimit.WorkSleep{
							Work:  sim.Duration(pps) * cfg.Nand.OOBScanPerPage,
							Sleep: sim.Duration(pps) * 6 * sim.Microsecond,
						},
					}
					wantBase := (*Snapshot)(nil)
					if incremental {
						opt.Base, opt.BaseManifestID, wantBase = base.ID, 7, base
					}
					x, d, err := f.BeginExport(now, opt)
					if err != nil {
						t.Fatal(err)
					}
					now = d
					f.Sched.Schedule(now, x)
					gcBefore := f.Stats().GCCopied
					var seen actBranches
					var mv exportMoves
					for i := 0; !x.Done(); i++ {
						if i > 400*pps {
							t.Fatalf("pps %d seed %d: export never finished", pps, seed)
						}
						write(uint64(201 + i%50))
						seen.observeScan(x.scan)
						mv.observe(x)
					}
					paths.repointed += seen.repointed
					paths.jumped += seen.jumped
					paths.rekeyed += seen.rekeyed
					paths.phase2 += seen.phase2
					moves.tgtScan += mv.tgtScan
					moves.tgtRead += mv.tgtRead
					moves.baseScan += mv.baseScan
					moves.baseRead += mv.baseRead
					if f.Stats().GCCopied == gcBefore {
						t.Fatalf("pps %d seed %d: the cleaner moved nothing during the export", pps, seed)
					}
					m, stream, err := x.Result()
					if err != nil {
						t.Fatalf("pps %d seed %d incremental %v: %v", pps, seed, incremental, err)
					}
					wantM, wantStream := bruteForceExport(f, target, wantBase, 7, tgtModel, baseModel)
					if m.ID() != wantM.ID() || len(m.Writes) != len(wantM.Writes) || len(m.Deletes) != len(wantM.Deletes) {
						t.Fatalf("pps %d selective %v seed %d incremental %v: manifest %d writes %d deletes, brute force %d writes %d deletes",
							pps, selective, seed, incremental, len(m.Writes), len(m.Deletes), len(wantM.Writes), len(wantM.Deletes))
					}
					if !bytes.Equal(stream, wantStream) {
						t.Fatalf("pps %d selective %v seed %d incremental %v: stream differs from the brute force", pps, selective, seed, incremental)
					}
					if err := f.CheckInvariants(); err != nil {
						t.Fatalf("pps %d seed %d: %v", pps, seed, err)
					}
				}
			}
		}
	}
	t.Logf("onBlockMoved paths taken: by address %d, jump %d, through moved %d, by LBA after the scan %d; blocks moved: target %d scanning %d reading, base %d scanning %d reading",
		paths.repointed, paths.jumped, paths.rekeyed, paths.phase2, moves.tgtScan, moves.tgtRead, moves.baseScan, moves.baseRead)
	if paths.repointed == 0 || paths.jumped == 0 || paths.rekeyed == 0 || paths.phase2 == 0 {
		t.Fatal("every onBlockMoved path must have been taken")
	}
	if moves.tgtScan == 0 || moves.tgtRead == 0 || moves.baseScan == 0 || moves.baseRead == 0 {
		t.Fatalf("blocks moved: target %d scanning %d reading, base %d scanning %d reading — each must be > 0",
			moves.tgtScan, moves.tgtRead, moves.baseScan, moves.baseRead)
	}
}

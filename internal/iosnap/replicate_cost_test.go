package iosnap

import (
	"testing"

	"iosnap/internal/sim"
)

// buildReplicaSource builds a 128-segment device with 600 written sectors
// frozen as snapshot s1, then a 10% overwrite plus a 10-sector trim frozen
// as s2. Full replication of s2 ships the whole image; incremental
// replication of s2 against s1 ships only the overwrite delta.
func buildReplicaSource(t testing.TB) (*FTL, SnapshotID, SnapshotID, sim.Time) {
	t.Helper()
	nc := testConfig().Nand
	nc.Segments = 128
	nc.PagesPerSegment = 32
	cfg := DefaultConfig(nc)
	cfg.GCWindow = 10 * sim.Millisecond
	cfg.BitmapPageBits = 64
	cfg.CoWPageCost = 10 * sim.Microsecond
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := f.SectorSize()
	now := sim.Time(0)
	for lba := int64(0); lba < 600; lba++ {
		f.Sched.RunUntil(now)
		d, err := f.Write(now, lba, sectorPattern(ss, lba, 1))
		if err != nil {
			t.Fatalf("fill LBA %d: %v", lba, err)
		}
		now = d
	}
	s1, d, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	now = d
	for lba := int64(0); lba < 60; lba++ {
		f.Sched.RunUntil(now)
		d, err := f.Write(now, lba, sectorPattern(ss, lba, 2))
		if err != nil {
			t.Fatalf("overwrite LBA %d: %v", lba, err)
		}
		now = d
	}
	if d, err := f.Trim(now, 590, 10); err != nil {
		t.Fatal(err)
	} else {
		now = d
	}
	s2, d, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	return f, s1.ID, s2.ID, d
}

// TestReplicationCostFullVsIncremental ships snapshot s2 twice: as a full
// image to a bare destination, and as a delta to a destination that already
// holds s1 (the steady-state generation-to-generation transfer of a
// rotation scheme). Sectors shipped, transfer stream size and virtual
// export+receive time are deterministic, so the incremental advantage is
// pinned exactly: a tenth of the sectors and of the wire bytes, a third of
// the time.
func TestReplicationCostFullVsIncremental(t *testing.T) {
	src, s1, s2, now := buildReplicaSource(t)
	type cost struct {
		sectors, wireBytes int
		virtualNs          sim.Duration
	}

	m, stream, t1, err := src.ExportSync(now, ExportOpts{Snapshot: s2})
	if err != nil {
		t.Fatal(err)
	}
	dst, err := New(src.cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, t2, err := ReceiveInto(dst, t1, stream, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := (cost{len(m.Writes), len(stream), dst.Scheduler().Drain(t2).Sub(now)}), (cost{590, 328708, 4541570}); got != want {
		t.Errorf("full: %+v, want %+v", got, want)
	}

	gen1, stream1, now, err := src.ExportSync(now, ExportOpts{Snapshot: s1})
	if err != nil {
		t.Fatal(err)
	}
	if dst, err = New(src.cfg, nil); err != nil {
		t.Fatal(err)
	}
	_, t0, err := ReceiveInto(dst, now, stream1, nil)
	if err != nil {
		t.Fatal(err)
	}
	t0 = dst.Scheduler().Drain(t0)
	m, stream, t1, err = src.ExportSync(t0, ExportOpts{
		Snapshot:       s2,
		Base:           s1,
		BaseManifestID: gen1.ID(),
		Have: func(lba, hash uint64) bool {
			e, ok := gen1.Find(lba)
			return ok && e.Hash == hash
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, t2, err = ReceiveInto(dst, t1, stream, gen1); err != nil {
		t.Fatal(err)
	}
	if !m.IsDelta() {
		t.Fatal("incremental export shipped a full image")
	}
	if got, want := (cost{len(m.Writes), len(stream), dst.Scheduler().Drain(t2).Sub(t0)}), (cost{60, 33578, 387000}); got != want {
		t.Errorf("incremental: %+v, want %+v", got, want)
	}
}

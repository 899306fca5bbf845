package cowsim

import (
	"bytes"
	"errors"
	"testing"

	"iosnap/internal/model"
	"iosnap/internal/sim"
)

func testStore(t *testing.T) *Store {
	t.Helper()
	cfg := DefaultConfig(1024)
	cfg.SectorSize = 512
	cfg.Channels = 2
	cfg.StoreData = true
	cfg.MappingsPerMetaPage = 16
	cfg.MetaCachePages = 4
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func pat(ss int, lba int64, v byte) []byte {
	b := make([]byte, ss)
	for i := range b {
		b[i] = byte(lba) ^ v ^ byte(i)
	}
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := testStore(t)
	ss := s.SectorSize()
	now, err := s.Write(0, 5, pat(ss, 5, 1))
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ss)
	if _, err := s.Read(now, 5, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pat(ss, 5, 1)) {
		t.Fatal("round trip failed")
	}
	// Unwritten reads zeros.
	if _, err := s.Read(now, 6, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten sector not zero")
		}
	}
}

func TestIOValidation(t *testing.T) {
	s := testStore(t)
	ss := s.SectorSize()
	if _, err := s.Write(0, -1, make([]byte, ss)); !errors.Is(err, ErrOutOfRange) {
		t.Fatal(err)
	}
	if _, err := s.Write(0, 0, make([]byte, ss-1)); !errors.Is(err, ErrBadLength) {
		t.Fatal(err)
	}
	if _, err := s.Read(0, s.Sectors(), make([]byte, ss)); !errors.Is(err, ErrOutOfRange) {
		t.Fatal(err)
	}
}

func TestSnapshotIsolation(t *testing.T) {
	s := testStore(t)
	ss := s.SectorSize()
	now, _ := s.Write(0, 1, pat(ss, 1, 1))
	id, now, err := s.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	now, _ = s.Write(now, 1, pat(ss, 1, 2))
	buf := make([]byte, ss)
	if _, err := s.ReadSnapshot(now, id, 1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pat(ss, 1, 1)) {
		t.Fatal("snapshot lost old version")
	}
	if _, err := s.Read(now, 1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, pat(ss, 1, 2)) {
		t.Fatal("active lost new version")
	}
}

func TestSnapshotCreateFlushesDirtyMetadata(t *testing.T) {
	s := testStore(t)
	ss := s.SectorSize()
	now := sim.Time(0)
	// Dirty many distinct metadata pages.
	for lba := int64(0); lba < 256; lba += 16 {
		now, _ = s.Write(now, lba, pat(ss, lba, 1))
	}
	_, done, err := s.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().FlushedPages < 16 {
		t.Fatalf("flushed %d pages, want >= 16", s.Stats().FlushedPages)
	}
	// The commit must consume real device time (the Figure 11 stall).
	if done.Sub(now) < 4*s.cfg.WriteLatency {
		t.Fatalf("commit cost %v too small", done.Sub(now))
	}
	// A second snapshot with nothing dirty is cheap.
	before := done
	_, done2, err := s.CreateSnapshot(done)
	if err != nil {
		t.Fatal(err)
	}
	if done2.Sub(before) > 3*s.cfg.WriteLatency {
		t.Fatal("clean commit should be cheap")
	}
}

func TestPostSnapshotWritesPayMetadataCoW(t *testing.T) {
	s := testStore(t)
	ss := s.SectorSize()
	now := sim.Time(0)
	now, _ = s.Write(now, 0, pat(ss, 0, 1))
	base := s.Stats().MetaCoWWrites
	if base != 0 {
		t.Fatal("CoW before any snapshot")
	}
	_, now, _ = s.CreateSnapshot(now)
	start := now
	now, _ = s.Write(now, 0, pat(ss, 0, 2))
	if s.Stats().MetaCoWWrites != 1 {
		t.Fatalf("MetaCoWWrites = %d, want 1", s.Stats().MetaCoWWrites)
	}
	firstLat := now.Sub(start)
	// Second overwrite of the same extent in the same generation: the
	// extent is now exclusive, so no CoW and a cheaper write.
	start = now
	now, _ = s.Write(now, 0, pat(ss, 0, 3))
	if s.Stats().MetaCoWWrites != 1 {
		t.Fatal("exclusive extent should not CoW again")
	}
	if now.Sub(start) >= firstLat {
		t.Fatalf("exclusive write (%v) not cheaper than CoW write (%v)", now.Sub(start), firstLat)
	}
	// A brand-new extent (never written) has no old version to preserve.
	s2 := testStore(t)
	_, n2, _ := s2.CreateSnapshot(0)
	s2.Write(n2, 9, pat(ss, 9, 1))
	if s2.Stats().MetaCoWWrites != 0 {
		t.Fatal("fresh extent write should not pay CoW")
	}
}

func TestRefcountTreeGrowthDegradesWrites(t *testing.T) {
	// The Figure 12 mechanism: with enough snapshots the refcount tree
	// outgrows the cache and CoW writes start paying extra reads.
	s := testStore(t)
	ss := s.SectorSize()
	now := sim.Time(0)
	for lba := int64(0); lba < 512; lba++ {
		now, _ = s.Write(now, lba, pat(ss, lba, 1))
	}
	missesBefore := s.Stats().RefcountReads
	for i := 0; i < 10; i++ {
		_, d, err := s.CreateSnapshot(now)
		if err != nil {
			t.Fatal(err)
		}
		now = d
		for lba := int64(0); lba < 512; lba += 8 {
			now, _ = s.Write(now, lba, pat(ss, lba, byte(i)))
		}
	}
	if s.Stats().RefcountReads == missesBefore {
		t.Fatal("refcount tree growth never caused cache misses")
	}
}

func TestDeleteSnapshotReleasesVersions(t *testing.T) {
	s := testStore(t)
	ss := s.SectorSize()
	now, _ := s.Write(0, 7, pat(ss, 7, 1))
	id, now, _ := s.CreateSnapshot(now)
	now, _ = s.Write(now, 7, pat(ss, 7, 2))
	if len(s.hist[7]) != 2 {
		t.Fatalf("history = %d versions", len(s.hist[7]))
	}
	now, err := s.DeleteSnapshot(now, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.hist[7]) != 1 {
		t.Fatalf("history after delete = %d versions", len(s.hist[7]))
	}
	if _, err := s.DeleteSnapshot(now, id); !errors.Is(err, ErrNoSuchSnapshot) {
		t.Fatal("double delete accepted")
	}
	if s.Snapshots() != 0 {
		t.Fatal("snapshot count wrong")
	}
}

func TestMultipleSnapshotsVersionChains(t *testing.T) {
	s := testStore(t)
	ss := s.SectorSize()
	now := sim.Time(0)
	var ids []SnapshotID
	for v := byte(1); v <= 4; v++ {
		now, _ = s.Write(now, 3, pat(ss, 3, v))
		id, d, err := s.CreateSnapshot(now)
		if err != nil {
			t.Fatal(err)
		}
		now = d
		ids = append(ids, id)
	}
	buf := make([]byte, ss)
	for i, id := range ids {
		if _, err := s.ReadSnapshot(now, id, 3, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, pat(ss, 3, byte(i+1))) {
			t.Fatalf("snapshot %d shows wrong version", id)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bad := DefaultConfig(0)
	if _, err := New(bad); err == nil {
		t.Fatal("zero sectors accepted")
	}
	bad = DefaultConfig(100)
	bad.Channels = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero channels accepted")
	}
}

// TestStoreMatchesModelRandomOps drives random writes, snapshots, deletes,
// and reads against a pure-map model of versioned state.
func TestStoreMatchesModelRandomOps(t *testing.T) {
	s := testStore(t)
	ss := s.SectorSize()
	rng := sim.NewRNG(21)

	m := model.New[SnapshotID]()
	now := sim.Time(0)
	buf := make([]byte, ss)

	for step := 0; step < 4000; step++ {
		switch op := rng.Intn(20); {
		case op < 12: // write
			lba := int64(rng.Intn(256))
			v := uint64(step + 1)
			d, err := s.Write(now, lba, model.Sectors(ss, lba, 1, v))
			if err != nil {
				t.Fatalf("step %d write: %v", step, err)
			}
			m.Active.Write(lba, v)
			now = d
		case op < 14 && len(m.IDs()) < 4: // snapshot
			id, d, err := s.CreateSnapshot(now)
			if err != nil {
				t.Fatalf("step %d snap: %v", step, err)
			}
			now = d
			m.Freeze(id, m.Active)
		case op < 15 && len(m.IDs()) > 0: // delete
			ids := m.IDs()
			id := ids[rng.Intn(len(ids))]
			d, err := s.DeleteSnapshot(now, id)
			if err != nil {
				t.Fatalf("step %d delete: %v", step, err)
			}
			now = d
			m.Delete(id)
		case op < 18: // read active; an unwritten LBA reads zeros
			lba := int64(rng.Intn(256))
			if _, err := s.Read(now, lba, buf); err != nil {
				t.Fatalf("step %d read: %v", step, err)
			}
			if v := m.Active.Version(lba); !model.Check(buf, lba, v) {
				t.Fatalf("step %d: active LBA %d does not hold version %d", step, lba, v)
			}
		default: // read a random snapshot
			if len(m.IDs()) == 0 {
				continue
			}
			ids := m.IDs()
			id := ids[rng.Intn(len(ids))]
			lba := int64(rng.Intn(256))
			if _, err := s.ReadSnapshot(now, id, lba, buf); err != nil {
				t.Fatalf("step %d snapread: %v", step, err)
			}
			if v := m.Snapshot(id).Version(lba); !model.Check(buf, lba, v) {
				t.Fatalf("step %d: snapshot %d LBA %d does not hold version %d", step, id, lba, v)
			}
		}
	}
	// Final: every surviving snapshot matches its frozen model exactly.
	for _, id := range m.IDs() {
		err := m.Snapshot(id).Verify(ss, func(lba int64, buf []byte) error {
			_, err := s.ReadSnapshot(now, id, lba, buf)
			return err
		})
		if err != nil {
			t.Fatalf("final: snapshot %d: %v", id, err)
		}
	}
}

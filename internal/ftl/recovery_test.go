package ftl

import (
	"bytes"
	"testing"

	"iosnap/internal/sim"
)

func TestRecoverAfterCrash(t *testing.T) {
	f := newTestFTL(t)
	model, now := fillAndChurn(t, f, 600, 60, 21)

	// Crash: no Close, no checkpoint. Recover from the raw device.
	r, now2, err := Recover(f.Config(), f.Device(), nil, now)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if now2 <= now {
		t.Fatal("recovery consumed no device time")
	}
	buf := make([]byte, r.SectorSize())
	for lba, version := range model {
		if _, err := r.Read(now2, lba, buf); err != nil {
			t.Fatalf("post-recovery Read(%d): %v", lba, err)
		}
		if !bytes.Equal(buf, sectorPattern(r.SectorSize(), lba, version)) {
			t.Fatalf("LBA %d wrong after recovery", lba)
		}
	}
	if r.MappedSectors() != len(model) {
		t.Fatalf("recovered %d mappings, want %d", r.MappedSectors(), len(model))
	}
}

func TestRecoveredFTLWritable(t *testing.T) {
	f := newTestFTL(t)
	model, now := fillAndChurn(t, f, 400, 40, 5)
	r, now, err := Recover(f.Config(), f.Device(), nil, now)
	if err != nil {
		t.Fatal(err)
	}
	ss := r.SectorSize()
	// Continue writing heavily; cleaning must still work.
	rng := sim.NewRNG(99)
	for i := 0; i < 400; i++ {
		r.Scheduler().RunUntil(now)
		lba := rng.Int63n(40)
		d, err := r.Write(now, lba, sectorPattern(ss, lba, byte(100+i)))
		if err != nil {
			t.Fatalf("post-recovery write %d: %v", i, err)
		}
		model[lba] = byte(100 + i)
		now = d
	}
	now = r.Scheduler().Drain(now)
	buf := make([]byte, ss)
	for lba, version := range model {
		if _, err := r.Read(now, lba, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, sectorPattern(ss, lba, version)) {
			t.Fatalf("LBA %d wrong after post-recovery churn", lba)
		}
	}
}

func TestRecoverFromCheckpoint(t *testing.T) {
	f := newTestFTL(t)
	model, now := fillAndChurn(t, f, 300, 30, 8)
	now, err := f.Close(now)
	if err != nil {
		t.Fatal(err)
	}
	r, now, err := Recover(f.Config(), f.Device(), nil, now)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, r.SectorSize())
	for lba, version := range model {
		if _, err := r.Read(now, lba, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, sectorPattern(r.SectorSize(), lba, version)) {
			t.Fatalf("LBA %d wrong after checkpoint recovery", lba)
		}
	}
	if r.MappedSectors() != len(model) {
		t.Fatalf("recovered %d mappings, want %d", r.MappedSectors(), len(model))
	}
}

func TestRecoverFreshDevice(t *testing.T) {
	f := newTestFTL(t)
	r, _, err := Recover(f.Config(), f.Device(), nil, 0)
	if err != nil {
		t.Fatalf("recover of fresh device: %v", err)
	}
	if r.MappedSectors() != 0 {
		t.Fatal("fresh recovery produced mappings")
	}
	if _, err := r.Write(0, 0, make([]byte, r.SectorSize())); err != nil {
		t.Fatalf("write after fresh recovery: %v", err)
	}
}

func TestRecoverGeometryMismatch(t *testing.T) {
	f := newTestFTL(t)
	other := testConfig()
	other.Nand.Segments = 8
	other.UserSectors = 64
	if _, _, err := Recover(other, f.Device(), nil, 0); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestRecoverEquivalentToLive(t *testing.T) {
	// Property: for several seeds, the recovered map must exactly match the
	// live FTL's map at crash time.
	for _, seed := range []uint64{1, 2, 3, 4} {
		f := newTestFTL(t)
		_, now := fillAndChurn(t, f, 500, 70, seed)
		live := make(map[uint64]uint64)
		f.ActiveMap.All(func(k, v uint64) bool {
			live[k] = v
			return true
		})
		r, _, err := Recover(f.Config(), f.Device(), nil, now)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if r.MappedSectors() != len(live) {
			t.Fatalf("seed %d: recovered %d mappings, want %d", seed, r.MappedSectors(), len(live))
		}
		r.ActiveMap.All(func(k, v uint64) bool {
			if live[k] != v {
				t.Fatalf("seed %d: LBA %d -> %d, live had %d", seed, k, v, live[k])
			}
			return true
		})
	}
}

func TestRecoverReplaysWritesAfterCheckpoint(t *testing.T) {
	// Close (checkpoint), recover, write more, crash, recover again: the
	// post-checkpoint writes must survive — the stale checkpoint may not
	// shadow them.
	f := newTestFTL(t)
	model, now := fillAndChurn(t, f, 200, 30, 44)
	now, err := f.Close(now)
	if err != nil {
		t.Fatal(err)
	}
	r1, now, err := Recover(f.Config(), f.Device(), nil, now)
	if err != nil {
		t.Fatal(err)
	}
	ss := r1.SectorSize()
	// Session 2: new writes after the checkpoint, then crash (no Close).
	for lba := int64(0); lba < 10; lba++ {
		r1.Scheduler().RunUntil(now)
		d, err := r1.Write(now, lba, sectorPattern(ss, lba, 199))
		if err != nil {
			t.Fatal(err)
		}
		model[lba] = 199
		now = d
	}
	now = r1.Scheduler().Drain(now)
	r2, now, err := Recover(r1.Config(), r1.Device(), nil, now)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, ss)
	for lba, version := range model {
		if _, err := r2.Read(now, lba, buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf, sectorPattern(ss, lba, version)) {
			t.Fatalf("LBA %d lost post-checkpoint write (want version %d)", lba, version)
		}
	}
}

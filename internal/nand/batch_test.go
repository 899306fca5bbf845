package nand

import (
	"errors"
	"fmt"
	"testing"

	"iosnap/internal/sim"
)

func batchConfig() Config {
	cfg := DefaultConfig()
	cfg.SectorSize = 4096
	cfg.PagesPerSegment = 64
	cfg.Segments = 8
	cfg.Channels = 4
	cfg.StoreData = true
	return cfg
}

func fillPattern(n int, seed byte) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = seed + byte(i)
	}
	return b
}

// TestProgramPagesMatchesSequential programs the same stripe on a batch
// device and a per-page twin, demanding identical device state, stats, and
// completion time: the batch's single bus window is n per-page clamped
// costs laid end to end, exactly the schedule sequential acquires produce.
func TestProgramPagesMatchesSequential(t *testing.T) {
	cfg := batchConfig()
	batch := New(cfg)
	seq := New(cfg)
	const n = 48
	addrs := make([]PageAddr, n)
	datas := make([][]byte, n)
	oobs := make([][]byte, n)
	for i := 0; i < n; i++ {
		addrs[i] = PageAddr(i)
		datas[i] = fillPattern(cfg.SectorSize, byte(i))
		oobs[i] = fillPattern(16, byte(i*3))
	}
	now := sim.Time(1000)
	k, batchDone, err := batch.ProgramPages(now, addrs, datas, oobs)
	if err != nil || k != n {
		t.Fatalf("batch: k=%d err=%v", k, err)
	}
	var seqDone sim.Time
	for i := range addrs {
		d, err := seq.ProgramPage(now, addrs[i], datas[i], oobs[i])
		if err != nil {
			t.Fatalf("seq page %d: %v", i, err)
		}
		if d > seqDone {
			seqDone = d
		}
	}
	if batchDone != seqDone {
		t.Fatalf("batch done %v != sequential %v", batchDone, seqDone)
	}
	if batch.Stats() != seq.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", batch.Stats(), seq.Stats())
	}
	for i := range addrs {
		bf, _ := batch.PageFingerprint(addrs[i])
		sf, _ := seq.PageFingerprint(addrs[i])
		if bf != sf {
			t.Fatalf("page %d fingerprint mismatch", i)
		}
		bo, _ := batch.PageOOB(addrs[i])
		so, _ := seq.PageOOB(addrs[i])
		if fmt.Sprint(bo) != fmt.Sprint(so) {
			t.Fatalf("page %d oob mismatch", i)
		}
	}
}

// TestReadPagesMatchesSequential: batch reads issue the identical acquires
// in the identical order as per-page reads, so completion times are exact.
func TestReadPagesMatchesSequential(t *testing.T) {
	cfg := batchConfig()
	batch := New(cfg)
	seq := New(cfg)
	const n = 32
	addrs := make([]PageAddr, n)
	for i := 0; i < n; i++ {
		addrs[i] = PageAddr(i)
		data := fillPattern(cfg.SectorSize, byte(i))
		if _, err := batch.ProgramPage(0, addrs[i], data, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := seq.ProgramPage(0, addrs[i], data, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Random-ish permutation crossing channels.
	perm := make([]PageAddr, 0, n)
	for i := 0; i < n; i++ {
		perm = append(perm, addrs[(i*7)%n])
	}
	now := sim.Time(5_000_000)
	var datas, oobs [][]byte
	k, batchDone, err := batch.ReadPagesInto(now, perm, &datas, &oobs)
	if err != nil || k != n {
		t.Fatalf("batch read: k=%d err=%v", k, err)
	}
	var seqDone sim.Time
	for i, a := range perm {
		data, _, d, err := seq.ReadPage(now, a)
		if err != nil {
			t.Fatalf("seq read %d: %v", i, err)
		}
		if d > seqDone {
			seqDone = d
		}
		if fmt.Sprint(data) != fmt.Sprint(datas[i]) {
			t.Fatalf("read %d payload mismatch", i)
		}
	}
	if batchDone != seqDone {
		t.Fatalf("batch read done %v != sequential %v", batchDone, seqDone)
	}
	if batch.Stats() != seq.Stats() {
		t.Fatalf("stats diverged: %+v vs %+v", batch.Stats(), seq.Stats())
	}
}

// TestCopyPagesMatchesSequential: the batch copy is defined as the
// sequential pipeline at a common submit time.
func TestCopyPagesMatchesSequential(t *testing.T) {
	cfg := batchConfig()
	batch := New(cfg)
	seq := New(cfg)
	const n = 16
	froms := make([]PageAddr, n)
	tos := make([]PageAddr, n)
	for i := 0; i < n; i++ {
		froms[i] = PageAddr(i)
		tos[i] = batch.Addr(1, i)
		data := fillPattern(cfg.SectorSize, byte(i))
		if _, err := batch.ProgramPage(0, froms[i], data, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := seq.ProgramPage(0, froms[i], data, nil); err != nil {
			t.Fatal(err)
		}
	}
	now := sim.Time(9_000_000)
	k, batchDone, err := batch.CopyPages(now, froms, tos)
	if err != nil || k != n {
		t.Fatalf("batch copy: k=%d err=%v", k, err)
	}
	var seqDone sim.Time
	for i := range froms {
		d, err := seq.CopyPage(now, froms[i], tos[i])
		if err != nil {
			t.Fatal(err)
		}
		if d > seqDone {
			seqDone = d
		}
	}
	if batchDone != seqDone {
		t.Fatalf("batch copy done %v != sequential %v", batchDone, seqDone)
	}
	if batch.Stats() != seq.Stats() {
		t.Fatalf("stats diverged")
	}
}

// TestProgramPagesFirstErrorContract: a mid-batch fault stops the batch at
// the failing page with everything before it committed and nothing after.
func TestProgramPagesFirstErrorContract(t *testing.T) {
	cfg := batchConfig()
	d := New(cfg)
	const n, failAt = 10, 6
	boom := errors.New("injected")
	ops := 0
	d.SetFaultHook(FaultFunc(func(op Op, addr PageAddr) error {
		if op == OpProgram {
			if ops == failAt {
				return boom
			}
			ops++
		}
		return nil
	}))
	addrs := make([]PageAddr, n)
	datas := make([][]byte, n)
	oobs := make([][]byte, n)
	for i := range addrs {
		addrs[i] = PageAddr(i)
		datas[i] = fillPattern(cfg.SectorSize, byte(i))
		oobs[i] = nil
	}
	k, _, err := d.ProgramPages(0, addrs, datas, oobs)
	if !errors.Is(err, boom) || k != failAt {
		t.Fatalf("k=%d err=%v, want k=%d err=injected", k, err, failAt)
	}
	for i := 0; i < n; i++ {
		if got := d.IsProgrammed(addrs[i]); got != (i < failAt) {
			t.Fatalf("page %d programmed=%v after fail-at-%d", i, got, failAt)
		}
	}
	if got := d.Stats().PagePrograms; got != failAt {
		t.Fatalf("PagePrograms %d, want %d", got, failAt)
	}
}

func TestReadPagesFirstErrorContract(t *testing.T) {
	cfg := batchConfig()
	d := New(cfg)
	for i := 0; i < 4; i++ {
		if _, err := d.ProgramPage(0, PageAddr(i), fillPattern(cfg.SectorSize, 1), nil); err != nil {
			t.Fatal(err)
		}
	}
	// Page 4 is erased: the batch must stop there with 4 pages read.
	addrs := []PageAddr{0, 1, 2, 3, 4, 5}
	var datas, oobs [][]byte
	k, _, err := d.ReadPagesInto(0, addrs, &datas, &oobs)
	if !errors.Is(err, ErrReadErased) || k != 4 {
		t.Fatalf("k=%d err=%v", k, err)
	}
	if len(datas) != 4 || len(oobs) != 4 {
		t.Fatalf("partial results len %d/%d, want 4", len(datas), len(oobs))
	}
}

package model

import (
	"errors"
	"slices"
	"strings"
	"testing"
)

func TestFillCheckRoundTrip(t *testing.T) {
	for _, ss := range []int{16, 25, 512, 4096} {
		b := make([]byte, ss)
		Fill(b, 7, 3)
		if !Check(b, 7, 3) {
			t.Fatalf("ss %d: a filled sector does not check", ss)
		}
		b[ss-1] ^= 1
		if Check(b, 7, 3) {
			t.Fatalf("ss %d: a flipped last byte still checks", ss)
		}
	}
	zero := make([]byte, 512)
	if !Check(zero, 7, 0) || Check(zero, 7, 1) {
		t.Fatal("version 0 must be the zero sector, and only version 0")
	}
	if !Check(Sectors(512, 9, 3, 0), 10, 0) {
		t.Fatal("Sectors at version 0 must be zeros")
	}
	run := Sectors(512, 9, 3, 5)
	for i := 0; i < 3; i++ {
		if !Check(run[i*512:(i+1)*512], 9+int64(i), 5) {
			t.Fatalf("sector %d of a run does not check", i)
		}
	}
}

// TestPayloadDoesNotAlias: the payload of one (LBA, version) must fail the
// check of every other, so a read served through a translation entry that
// is off by a power of two, or a stale version, cannot pass. A payload that
// repeats every 256 sectors or versions aliases exactly these pairs.
func TestPayloadDoesNotAlias(t *testing.T) {
	for _, ss := range []int{16, 25, 512, 4096} {
		for _, x := range []int64{0, 7, 255, 1 << 20} {
			for _, v := range []uint64{1, 2, 200} {
				b := make([]byte, ss)
				Fill(b, x, v)
				for _, other := range []struct {
					lba int64
					ver uint64
				}{{x + 256, v}, {x + 1<<32, v}, {x, v + 256}} {
					if Check(b, other.lba, other.ver) {
						t.Fatalf("ss %d: LBA %d version %d passes as LBA %d version %d", ss, x, v, other.lba, other.ver)
					}
				}
			}
		}
	}
}

// TestFrozenImageDoesNotChange: a snapshot's image is a copy taken at the
// freeze; later writes and trims of the active image, and writes to a view
// forked from it, leave it as it was, and writing it directly panics.
func TestFrozenImageDoesNotChange(t *testing.T) {
	m := New[uint64]()
	m.Active.Write(1, 1)
	m.Active.Write(2, 1)
	m.Freeze(10, m.Active)
	m.Active.Write(1, 2)
	m.Active.Trim(2)
	m.Active.Write(3, 2)
	view := m.Snapshot(10).Fork()
	view.Write(2, 3)
	view.Write(4, 3)
	view.Trim(1)

	frozen := m.Snapshot(10)
	if got := frozen.LBAs(); !slices.Equal(got, []int64{1, 2}) {
		t.Fatalf("frozen LBAs %v, want [1 2]", got)
	}
	if frozen.Version(1) != 1 || frozen.Version(2) != 1 {
		t.Fatalf("frozen versions %d, %d; want 1, 1", frozen.Version(1), frozen.Version(2))
	}
	if m.Active.Version(1) != 2 || m.Active.Version(2) != 0 || view.Version(2) != 3 {
		t.Fatal("the active image or the view lost a write")
	}
	m.Freeze(11, view)
	if m.Snapshot(11).Version(4) != 3 || m.Snapshot(10).Version(4) != 0 {
		t.Fatal("a snapshot of a view is not the view's image")
	}
	if ids := m.IDs(); !slices.Equal(ids, []uint64{10, 11}) {
		t.Fatalf("IDs %v, want [10 11]", ids)
	}
	m.Delete(10)
	if m.Snapshot(10) != nil || len(m.IDs()) != 1 {
		t.Fatal("Delete left the snapshot live")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("writing a frozen image did not panic")
		}
	}()
	frozen.Write(1, 9)
}

// TestVerifyWalk: the walk reads the written LBAs in ascending order, names
// the first one that reads back wrong, and leaves excusing an error to the
// read function.
func TestVerifyWalk(t *testing.T) {
	const ss = 64
	im := NewImage()
	for _, lba := range []int64{40, 3, 17, 9} {
		im.Write(lba, uint64(lba)+1)
	}
	dev := map[int64][]byte{}
	for _, lba := range im.LBAs() {
		dev[lba] = Sectors(ss, lba, 1, im.Version(lba))
	}
	var order []int64
	read := func(lba int64, buf []byte) error {
		order = append(order, lba)
		copy(buf, dev[lba])
		return nil
	}
	if err := im.Verify(ss, read); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []int64{3, 9, 17, 40}) {
		t.Fatalf("walk order %v, want ascending", order)
	}

	dev[17][5] ^= 1
	dev[40][5] ^= 1
	order = nil
	err := im.Verify(ss, read)
	if !errors.Is(err, ErrMismatch) || !strings.Contains(err.Error(), "LBA 17 ") {
		t.Fatalf("got %v, want a mismatch naming LBA 17", err)
	}
	if !slices.Equal(order, []int64{3, 9, 17}) {
		t.Fatalf("walk went on past the first bad LBA: %v", order)
	}

	// The caller excuses LBA 17 and stops at 40.
	order = nil
	err = im.Verify(ss, func(lba int64, buf []byte) error {
		switch lba {
		case 17:
			return ErrSkip
		case 40:
			return ErrStop
		}
		return read(lba, buf)
	})
	if err != nil || !slices.Equal(order, []int64{3, 9}) {
		t.Fatalf("skip and stop: err %v, reads %v", err, order)
	}
	boom := errors.New("boom")
	if err := im.Verify(ss, func(int64, []byte) error { return boom }); err != boom {
		t.Fatalf("a read error came back as %v", err)
	}
}

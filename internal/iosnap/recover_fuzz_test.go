package iosnap

import (
	"bytes"
	"encoding/binary"
	"testing"
	"time"

	"iosnap/internal/header"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// A mount replays whatever headers the log holds, and an image file can
// hold anything. Recovery has to come back — with an FTL that passes its
// own invariants, or with an error — whatever notes and data headers follow
// a real device's log head; and when both mounts come back with an FTL, the
// two must be equal.

// recoverLogImage is the fuzzer's device: writes, two snapshots, one of them
// deleted (so its epoch is reaped and the checkpoint has an alias), a view left
// open on the other, and a Close that anchors the checkpoint.
func recoverLogImage(t testing.TB) (Config, []byte, uint64) {
	f, err := New(testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Time(0)
	write := func(v byte) {
		for lba := int64(0); lba < 12; lba++ {
			if now, err = f.Write(now, lba*3, sectorPattern(f.SectorSize(), lba*3, v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(1)
	s1, now, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	write(2)
	s2, now, err := f.CreateSnapshot(now)
	if err != nil {
		t.Fatal(err)
	}
	write(3)
	if now, err = f.DeleteSnapshot(now, s1.ID); err != nil {
		t.Fatal(err)
	}
	if _, now, err = f.ActivateSync(now, s2.ID, noLimit, false); err != nil {
		t.Fatal(err)
	}
	if _, err = f.Close(now); err != nil {
		t.Fatal(err)
	}
	var img bytes.Buffer
	if err := f.Dev.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	return f.Config(), img.Bytes(), f.Seq
}

// fuzzHeaderLen is one crafted header's encoding: type, LBA (2 bytes),
// epoch, and a signed sequence offset from the log's last (2 bytes) — small
// fields, so the fuzzer lands on real snapshot IDs, epochs and LBAs.
const fuzzHeaderLen = 6

// programCrafted appends up to 16 headers decoded from data to the log:
// into the head segment's free pages (the one partly programmed segment),
// then into free segments in order.
func programCrafted(t *testing.T, dev *nand.Device, lastSeq uint64, data []byte) {
	nc := dev.Config()
	var free []nand.PageAddr
	for seg := 0; seg < nc.Segments; seg++ {
		if n := dev.NextFreeInSegment(seg); n > 0 && n < nc.PagesPerSegment {
			for i := n; i < nc.PagesPerSegment; i++ {
				free = append(free, dev.Addr(seg, i))
			}
		}
	}
	for seg := 0; seg < nc.Segments; seg++ {
		if dev.ProgrammedInSegment(seg) == 0 && dev.SegmentHealth(seg) == nand.Healthy {
			for i := 0; i < nc.PagesPerSegment; i++ {
				free = append(free, dev.Addr(seg, i))
			}
		}
	}
	payload := make([]byte, nc.SectorSize)
	for i := 0; len(data) >= fuzzHeaderLen && i < 16 && i < len(free); i++ {
		b := data[:fuzzHeaderLen]
		data = data[fuzzHeaderLen:]
		h := header.Header{
			Type:  header.Type(b[0] % 11),
			LBA:   uint64(binary.LittleEndian.Uint16(b[1:])),
			Epoch: uint64(b[3]),
			Seq:   lastSeq + uint64(int64(int16(binary.LittleEndian.Uint16(b[4:])))),
		}
		if _, err := dev.ProgramPage(0, free[i], payload, h.Marshal()); err != nil {
			t.Fatal(err)
		}
	}
}

// craftedHeaders encodes headers for the seed corpus.
func craftedHeaders(hs ...header.Header) []byte {
	var out []byte
	for _, h := range hs {
		out = append(out, byte(h.Type))
		out = binary.LittleEndian.AppendUint16(out, uint16(h.LBA))
		out = append(out, byte(h.Epoch))
		out = binary.LittleEndian.AppendUint16(out, uint16(h.Seq))
	}
	return out
}

func FuzzRecoverLog(f *testing.F) {
	cfg, img, lastSeq := recoverLogImage(f)
	for _, seed := range [][]byte{
		nil,
		// An activate note making snapshot 2's epoch its own parent.
		craftedHeaders(header.Header{Type: header.TypeSnapActivate, LBA: 2, Epoch: 2, Seq: 10}),
		// A create note freezing an epoch not older than the one it forks.
		craftedHeaders(header.Header{Type: header.TypeSnapCreate, LBA: 3, Epoch: 40, Seq: 3}),
		// Tail writes: one into the active epoch, one stamped with the
		// reaped epoch 1, one pre-dating the checkpoint.
		craftedHeaders(
			header.Header{Type: header.TypeData, LBA: 4, Epoch: 3, Seq: 1},
			header.Header{Type: header.TypeData, LBA: 5, Epoch: 1, Seq: 2},
			header.Header{Type: header.TypeData, LBA: 6, Epoch: 3, Seq: 0xfff0}),
		// What the fuzzer found: a create freezing an epoch the graph never
		// held, or one already frozen; a deactivate of a snapshot's epoch,
		// or of an epoch a later create brings into being; a write stamped
		// with a frozen epoch after its freeze, overwriting a later one.
		craftedHeaders(header.Header{Type: header.TypeSnapCreate, LBA: 3, Epoch: 0, Seq: 1}),
		craftedHeaders(header.Header{Type: header.TypeSnapCreate, LBA: 3, Epoch: 1, Seq: 1}),
		craftedHeaders(header.Header{Type: header.TypeSnapDeactivate, LBA: 3, Epoch: 2, Seq: 1}),
		craftedHeaders(
			header.Header{Type: header.TypeSnapDeactivate, LBA: 3, Epoch: 5, Seq: 1},
			header.Header{Type: header.TypeSnapCreate, LBA: 3, Epoch: 3, Seq: 2}),
		craftedHeaders(header.Header{Type: header.TypeData, LBA: 33, Epoch: 1, Seq: 1}),
		// A snapshot lifecycle after the checkpoint, as the FTL writes it:
		// snapshot 3 freezes the active epoch 3 (5 continues), is activated
		// on epoch 6 and deactivated; snapshot 2 is deleted.
		craftedHeaders(
			header.Header{Type: header.TypeSnapCreate, LBA: 3, Epoch: 3, Seq: 1},
			header.Header{Type: header.TypeSnapActivate, LBA: 3, Epoch: 6, Seq: 2},
			header.Header{Type: header.TypeSnapDeactivate, LBA: 3, Epoch: 6, Seq: 3},
			header.Header{Type: header.TypeSnapDelete, LBA: 2, Epoch: 2, Seq: 4}),
		// A write into the active epoch and an activate note sharing one
		// seq: whatever their kinds, only the record at the higher address
		// stands, in both mounts.
		craftedHeaders(
			header.Header{Type: header.TypeData, LBA: 40, Epoch: 3, Seq: 1},
			header.Header{Type: header.TypeSnapActivate, LBA: 2, Epoch: 5, Seq: 1}),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var mounted []*FTL
		for _, m := range []struct {
			name  string
			mount func(Config, *nand.Device, *sim.Scheduler, sim.Time) (*FTL, sim.Time, error)
		}{{"Recover", Recover}, {"RecoverFullScan", RecoverFullScan}} {
			dev, err := nand.LoadImage(bytes.NewReader(img))
			if err != nil {
				t.Fatal(err)
			}
			programCrafted(t, dev, lastSeq, data)
			type result struct {
				f   *FTL
				err error
			}
			done := make(chan result, 1)
			go func() {
				r, _, err := m.mount(cfg, dev, nil, 0)
				done <- result{r, err}
			}()
			select {
			case res := <-done:
				if res.err == nil {
					if err := res.f.CheckInvariants(); err != nil {
						t.Fatalf("%s mounted an FTL that fails its invariants: %v", m.name, err)
					}
					mounted = append(mounted, res.f)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("%s still running after 10 s", m.name)
			}
		}
		if len(mounted) == 2 {
			if err := CompareRecovered(mounted[0], mounted[1]); err != nil {
				t.Fatalf("the two mounts differ: %v", err)
			}
		}
	})
}

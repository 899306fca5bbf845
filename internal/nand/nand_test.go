package nand

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"unsafe"

	"iosnap/internal/sim"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.SectorSize = 512
	cfg.PagesPerSegment = 8
	cfg.Segments = 4
	cfg.Channels = 2
	cfg.StoreData = true
	return cfg
}

func fill(n int, b byte) []byte {
	d := make([]byte, n)
	for i := range d {
		d[i] = b
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.SectorSize = 0
	if bad.Validate() == nil {
		t.Fatal("zero sector size accepted")
	}
	bad = good
	bad.Segments = -1
	if bad.Validate() == nil {
		t.Fatal("negative segments accepted")
	}
	bad = good
	bad.Channels = 0
	if bad.Validate() == nil {
		t.Fatal("zero channels accepted")
	}
}

func TestCapacity(t *testing.T) {
	cfg := testConfig()
	if got := cfg.TotalPages(); got != 32 {
		t.Fatalf("TotalPages = %d, want 32", got)
	}
	if got := cfg.Capacity(); got != 32*512 {
		t.Fatalf("Capacity = %d, want %d", got, 32*512)
	}
}

func TestProgramAndRead(t *testing.T) {
	d := New(testConfig())
	data := fill(512, 0xAB)
	oob := []byte("hdr")
	done, err := d.ProgramPage(0, 0, data, oob)
	if err != nil {
		t.Fatalf("ProgramPage: %v", err)
	}
	if done <= 0 {
		t.Fatal("program completion time not after submission")
	}
	got, gotOOB, _, err := d.ReadPage(done, 0)
	if err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("payload mismatch")
	}
	if !bytes.Equal(gotOOB[:3], oob) {
		t.Fatalf("oob mismatch: %q", gotOOB[:3])
	}
	for _, b := range gotOOB[3:] {
		if b != 0 {
			t.Fatal("oob tail not zero-padded")
		}
	}
}

func TestProgramTwiceFails(t *testing.T) {
	d := New(testConfig())
	data := fill(512, 1)
	if _, err := d.ProgramPage(0, 0, data, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProgramPage(0, 0, data, nil); !errors.Is(err, ErrNotErased) {
		t.Fatalf("reprogram: got %v, want ErrNotErased", err)
	}
}

func TestProgramOutOfOrderFails(t *testing.T) {
	d := New(testConfig())
	data := fill(512, 1)
	if _, err := d.ProgramPage(0, 1, data, nil); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("skip-ahead program: got %v, want ErrOutOfOrder", err)
	}
	if _, err := d.ProgramPage(0, 0, data, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CopyPage(0, 0, 2); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("skip-ahead copy: got %v, want ErrOutOfOrder", err)
	}
}

func TestReadErasedFails(t *testing.T) {
	d := New(testConfig())
	if _, _, _, err := d.ReadPage(0, 5); !errors.Is(err, ErrReadErased) {
		t.Fatalf("got %v, want ErrReadErased", err)
	}
}

func TestBadAddress(t *testing.T) {
	d := New(testConfig())
	if _, err := d.ProgramPage(0, PageAddr(d.Config().TotalPages()), fill(512, 0), nil); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("got %v, want ErrBadAddress", err)
	}
	if _, _, err := d.ScanSegmentOOB(0, 99, nil); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("scan: got %v, want ErrBadAddress", err)
	}
	if _, err := d.EraseSegment(0, -1); !errors.Is(err, ErrBadAddress) {
		t.Fatalf("erase: got %v, want ErrBadAddress", err)
	}
}

func TestBadPayloadSize(t *testing.T) {
	d := New(testConfig())
	if _, err := d.ProgramPage(0, 0, fill(100, 0), nil); !errors.Is(err, ErrBadSize) {
		t.Fatalf("got %v, want ErrBadSize", err)
	}
	if _, err := d.ProgramPage(0, 0, fill(512, 0), make([]byte, OOBSize+1)); err == nil {
		t.Fatal("oversized OOB accepted")
	}
}

func TestEraseAllowsReprogram(t *testing.T) {
	d := New(testConfig())
	data := fill(512, 7)
	for i := 0; i < 8; i++ {
		if _, err := d.ProgramPage(0, PageAddr(i), data, nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.ProgrammedInSegment(0); got != 8 {
		t.Fatalf("ProgrammedInSegment = %d, want 8", got)
	}
	if _, err := d.EraseSegment(0, 0); err != nil {
		t.Fatal(err)
	}
	if got := d.ProgrammedInSegment(0); got != 0 {
		t.Fatalf("after erase, ProgrammedInSegment = %d", got)
	}
	if d.EraseCount(0) != 1 {
		t.Fatalf("EraseCount = %d", d.EraseCount(0))
	}
	if _, err := d.ProgramPage(0, 0, data, nil); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
}

func TestEraseEndurance(t *testing.T) {
	cfg := testConfig()
	cfg.EraseEndurance = 2
	d := New(cfg)
	for i := 0; i < 2; i++ {
		if _, err := d.EraseSegment(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.EraseSegment(0, 1); !errors.Is(err, ErrWornOut) {
		t.Fatalf("got %v, want ErrWornOut", err)
	}
}

func TestChannelParallelism(t *testing.T) {
	// With 2 channels, two pages on different channels overlap; two on the
	// same channel serialize.
	cfg := testConfig()
	cfg.WriteBusMBps = 0 // disable bus so only channels matter
	d := New(cfg)
	data := fill(512, 1)
	done0, err := d.ProgramPage(0, 0, data, nil) // channel 0
	if err != nil {
		t.Fatal(err)
	}
	done1, err := d.ProgramPage(0, 1, data, nil) // channel 1
	if err != nil {
		t.Fatal(err)
	}
	if done1 != done0 {
		t.Fatalf("parallel channels should finish together: %v vs %v", done0, done1)
	}
	done2, err := d.ProgramPage(0, 2, data, nil) // channel 0 again
	if err != nil {
		t.Fatal(err)
	}
	if done2 != done0.Add(cfg.ProgramLatency) {
		t.Fatalf("same-channel op should queue: done2=%v, want %v", done2, done0.Add(cfg.ProgramLatency))
	}
}

func TestBusCapsThroughput(t *testing.T) {
	cfg := testConfig()
	cfg.PagesPerSegment = 1024
	cfg.Channels = 16
	cfg.WriteBusMBps = 100
	cfg.StoreData = false
	d := New(cfg)
	data := fill(512, 1)
	var now sim.Time
	const n = 2048
	for i := 0; i < n; i++ {
		done, err := d.ProgramPage(now, PageAddr(i), data, nil)
		if err != nil {
			t.Fatal(err)
		}
		now = done
	}
	// Note: `now` chains op completions, so effective throughput is below
	// the bus cap; it must certainly not exceed it.
	mbps := sim.Throughput(int64(n)*512, sim.Duration(now))
	if mbps > 100.5 {
		t.Fatalf("throughput %.1f MB/s exceeds 100 MB/s bus cap", mbps)
	}
}

func TestScanSegmentOOB(t *testing.T) {
	d := New(testConfig())
	data := fill(512, 9)
	for i := 0; i < 3; i++ {
		oob := []byte{byte(i + 10)}
		if _, err := d.ProgramPage(0, PageAddr(i), data, oob); err != nil {
			t.Fatal(err)
		}
	}
	oobs, done, err := d.ScanSegmentOOB(0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("scan should consume time")
	}
	if len(oobs) != 8 {
		t.Fatalf("scan returned %d entries, want 8", len(oobs))
	}
	for i := 0; i < 3; i++ {
		if oobs[i] == nil || oobs[i][0] != byte(i+10) {
			t.Fatalf("oob %d wrong: %v", i, oobs[i])
		}
	}
	for i := 3; i < 8; i++ {
		if oobs[i] != nil {
			t.Fatalf("erased page %d has oob", i)
		}
	}
}

// TestPageRecordIsPointerFree pins the page table's layout: a page record
// holds no pointer, slice, map or interface, so a segment's page array is a
// noscan allocation the garbage collector never walks, and it is at most 41
// bytes (state, OOB, fingerprint), the host memory a physical page costs
// beside its payload. A payload slice kept per page would be both a pointer
// per page to scan and a separate heap object per page.
func TestPageRecordIsPointerFree(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Interface,
			reflect.String, reflect.Chan, reflect.Func:
			t.Errorf("page field %s is a %s: every page record would hold a pointer the garbage collector scans", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("page", reflect.TypeOf(page{}))
	if size := unsafe.Sizeof(page{}); size > 41 {
		t.Errorf("a page record is %d bytes, want at most 41: the page table is host heap paid per physical page", size)
	}
}

func TestFingerprintMode(t *testing.T) {
	cfg := testConfig()
	cfg.StoreData = false
	d := New(cfg)
	data := fill(512, 0x5C)
	if _, err := d.ProgramPage(0, 0, data, nil); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := d.ReadPage(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got != nil {
		t.Fatal("fingerprint mode should not retain payloads")
	}
	fp, err := d.PageFingerprint(0)
	if err != nil {
		t.Fatal(err)
	}
	if fp != Fingerprint(data) {
		t.Fatal("fingerprint mismatch")
	}
}

func TestFaultInjection(t *testing.T) {
	d := New(testConfig())
	boom := errors.New("boom")
	d.SetFaultHook(FaultFunc(func(op Op, addr PageAddr) error {
		if op == OpProgram && addr == 2 {
			return boom
		}
		return nil
	}))
	data := fill(512, 1)
	for i := 0; i < 2; i++ {
		if _, err := d.ProgramPage(0, PageAddr(i), data, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.ProgramPage(0, 2, data, nil); !errors.Is(err, boom) {
		t.Fatalf("got %v, want injected error", err)
	}
	// The failed program must leave the page erased and programmable once
	// the hook is removed.
	if d.IsProgrammed(2) {
		t.Fatal("failed program left the page programmed")
	}
	d.SetFaultHook(nil)
	if _, err := d.ProgramPage(0, 2, data, nil); err != nil {
		t.Fatalf("program after hook removal: %v", err)
	}
}

// oobCorruptor is a FaultHook that flips the first OOB byte of every
// programmed page (a torn header).
type oobCorruptor struct{ hits int }

func (c *oobCorruptor) BeforeOp(Op, PageAddr) error { return nil }

func (c *oobCorruptor) MutateOOB(_ PageAddr, oob []byte) []byte {
	c.hits++
	out := append([]byte(nil), oob...)
	if len(out) > 0 {
		out[0] ^= 0xFF
	}
	return out
}

func TestFaultHookMutatesOOB(t *testing.T) {
	d := New(testConfig())
	c := &oobCorruptor{}
	d.SetFaultHook(c)
	want := []byte{0xAA, 0xBB}
	if _, err := d.ProgramPage(0, 0, fill(512, 1), want); err != nil {
		t.Fatal(err)
	}
	if c.hits != 1 {
		t.Fatalf("MutateOOB called %d times, want 1", c.hits)
	}
	oob, err := d.PageOOB(0)
	if err != nil {
		t.Fatal(err)
	}
	if oob[0] != 0xAA^0xFF || oob[1] != 0xBB {
		t.Fatalf("stored oob = %x, want corrupted first byte", oob[:2])
	}
	if want[0] != 0xAA {
		t.Fatal("caller's oob buffer was modified in place")
	}
}

func TestFaultHookOpCopyTargetsCleanerCopies(t *testing.T) {
	d := New(testConfig())
	data := fill(512, 1)
	if _, err := d.ProgramPage(0, 0, data, nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("copy boom")
	d.SetFaultHook(FaultFunc(func(op Op, addr PageAddr) error {
		if op == OpCopy {
			return boom
		}
		return nil
	}))
	// Foreground programs and reads are untouched…
	if _, err := d.ProgramPage(0, 1, data, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := d.ReadPage(0, 0); err != nil {
		t.Fatal(err)
	}
	// …but copy-forward fails, with the destination left erased.
	dst := d.Addr(1, 0)
	if _, err := d.CopyPage(0, 0, dst); !errors.Is(err, boom) {
		t.Fatalf("CopyPage = %v, want injected copy error", err)
	}
	if d.IsProgrammed(dst) {
		t.Fatal("failed copy programmed the destination")
	}
}

func TestStats(t *testing.T) {
	d := New(testConfig())
	data := fill(512, 1)
	if _, err := d.ProgramPage(0, 0, data, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := d.ReadPage(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := d.EraseSegment(0, 0); err != nil {
		t.Fatal(err)
	}
	s := d.Stats()
	if s.PagePrograms != 1 || s.PageReads != 1 || s.Erases != 1 {
		t.Fatalf("stats = %+v", s)
	}
	if s.BytesWritten != 512 || s.BytesRead != 512 {
		t.Fatalf("byte counters = %+v", s)
	}
	d.ResetStats()
	if d.Stats() != (Stats{}) {
		t.Fatal("ResetStats did not zero counters")
	}
}

func TestWearStats(t *testing.T) {
	d := New(testConfig())
	for i := 0; i < 3; i++ {
		if _, err := d.EraseSegment(0, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := d.EraseSegment(0, 2); err != nil {
		t.Fatal(err)
	}
	minE, maxE, total := d.WearStats()
	if minE != 0 || maxE != 3 || total != 4 {
		t.Fatalf("WearStats = %d %d %d", minE, maxE, total)
	}
}

func TestAddrRoundTrip(t *testing.T) {
	d := New(testConfig())
	for seg := 0; seg < 4; seg++ {
		for idx := 0; idx < 8; idx++ {
			a := d.Addr(seg, idx)
			if d.SegmentOf(a) != seg || d.PageIndexOf(a) != idx {
				t.Fatalf("Addr round trip failed for %d/%d", seg, idx)
			}
		}
	}
}

func TestOpString(t *testing.T) {
	for op, want := range map[Op]string{OpRead: "read", OpProgram: "program", OpErase: "erase", OpScanOOB: "scan-oob"} {
		if op.String() != want {
			t.Fatalf("Op(%d).String() = %q", int(op), op.String())
		}
	}
}

// TestDeviceMatchesModelRandomOps drives random program/copy/erase
// sequences against a simple model of what each page should hold; programs
// and copies land on the next free page of a random segment. Every 2000
// steps the device is replaced by a load of its image, so programs and
// copies also land in stores that are image frames, which the load adopts
// and the first program past them moves to a slab.
func TestDeviceMatchesModelRandomOps(t *testing.T) {
	cfg := testConfig()
	d := New(cfg)
	rng := sim.NewRNG(31)
	total := int(cfg.TotalPages())

	type state struct {
		programmed bool
		fp         uint64
		oob        byte
	}
	model := make([]state, total)
	payload := func(tag byte) []byte { return fill(cfg.SectorSize, tag) }

	for step := 0; step < 20000; step++ {
		if step%2000 == 1999 {
			var buf bytes.Buffer
			if err := d.SaveImage(&buf); err != nil {
				t.Fatal(err)
			}
			loaded, err := LoadImage(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			d = loaded
		}
		switch rng.Intn(6) {
		case 0, 1: // program the next free page of a random segment
			seg := rng.Intn(cfg.Segments)
			next := d.NextFreeInSegment(seg)
			if next == cfg.PagesPerSegment {
				addr := d.Addr(seg, rng.Intn(next))
				if _, err := d.ProgramPage(0, addr, payload(0), nil); !errors.Is(err, ErrNotErased) {
					t.Fatalf("step %d: reprogram of %d: %v", step, addr, err)
				}
				continue
			}
			addr := d.Addr(seg, next)
			tag := byte(rng.Intn(250))
			if _, err := d.ProgramPage(0, addr, payload(tag), []byte{tag}); err != nil {
				t.Fatalf("step %d: program %d: %v", step, addr, err)
			}
			model[addr] = state{programmed: true, fp: Fingerprint(payload(tag)), oob: tag}
		case 2: // copy to the next free page of a random segment
			from := PageAddr(rng.Intn(total))
			seg := rng.Intn(cfg.Segments)
			next := d.NextFreeInSegment(seg)
			if next == cfg.PagesPerSegment {
				from, to := d.Addr(seg, rng.Intn(next)), d.Addr(seg, rng.Intn(next))
				if _, err := d.CopyPage(0, from, to); !errors.Is(err, ErrNotErased) {
					t.Fatalf("step %d: copy onto programmed %d: %v", step, to, err)
				}
				continue
			}
			to := d.Addr(seg, next)
			_, err := d.CopyPage(0, from, to)
			switch {
			case !model[from].programmed:
				if !errors.Is(err, ErrReadErased) {
					t.Fatalf("step %d: copy from erased %d: %v", step, from, err)
				}
			default:
				if err != nil {
					t.Fatalf("step %d: copy %d->%d: %v", step, from, to, err)
				}
				model[to] = model[from]
			}
		case 3: // erase a random segment
			seg := rng.Intn(cfg.Segments)
			if _, err := d.EraseSegment(0, seg); err != nil {
				t.Fatalf("step %d: erase %d: %v", step, seg, err)
			}
			for i := 0; i < cfg.PagesPerSegment; i++ {
				model[d.Addr(seg, i)] = state{}
			}
		default: // read and cross-check a random page
			addr := PageAddr(rng.Intn(total))
			data, oob, _, err := d.ReadPage(0, addr)
			m := model[addr]
			if !m.programmed {
				if !errors.Is(err, ErrReadErased) {
					t.Fatalf("step %d: read of erased %d: %v", step, addr, err)
				}
				continue
			}
			if err != nil {
				t.Fatalf("step %d: read %d: %v", step, addr, err)
			}
			if Fingerprint(data) != m.fp {
				t.Fatalf("step %d: page %d content mismatch", step, addr)
			}
			if oob[0] != m.oob {
				t.Fatalf("step %d: page %d oob mismatch", step, addr)
			}
		}
	}
	// Final sweep: fingerprints of all programmed pages match the model.
	for addr := 0; addr < total; addr++ {
		m := model[addr]
		if !m.programmed {
			if d.IsProgrammed(PageAddr(addr)) {
				t.Fatalf("page %d programmed in device, erased in model", addr)
			}
			continue
		}
		fp, err := d.PageFingerprint(PageAddr(addr))
		if err != nil || fp != m.fp {
			t.Fatalf("final: page %d fp mismatch (%v)", addr, err)
		}
	}
}

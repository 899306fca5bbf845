package faultinject

import (
	"errors"
	"testing"

	"iosnap/internal/header"
	"iosnap/internal/nand"
)

func testDevice() *nand.Device {
	cfg := nand.DefaultConfig()
	cfg.SectorSize = 512
	cfg.PagesPerSegment = 8
	cfg.Segments = 4
	cfg.Channels = 2
	cfg.StoreData = true
	return nand.New(cfg)
}

func dataOOB(lba uint64, seq uint64) []byte {
	return header.Header{Type: header.TypeData, LBA: lba, Epoch: 1, Seq: seq}.Marshal()
}

func program(t *testing.T, d *nand.Device, addr nand.PageAddr, lba uint64) {
	t.Helper()
	payload := make([]byte, d.Config().SectorSize)
	if _, err := d.ProgramPage(0, addr, payload, dataOOB(lba, uint64(addr))); err != nil {
		t.Fatalf("program page %d: %v", addr, err)
	}
}

func TestCountRuleFiresOnceAtExactN(t *testing.T) {
	d := testDevice()
	p := NewPlan(1, Rule{Name: "third-prog", Kind: KindError, Op: nand.OpProgram, Seg: AnySeg, AfterN: 3})
	p.Arm(d)

	payload := make([]byte, d.Config().SectorSize)
	var errs int
	for i := 0; i < 6; i++ {
		_, err := d.ProgramPage(0, d.Addr(0, i-errs), payload, dataOOB(uint64(i), uint64(i)))
		if i == 2 {
			if !errors.Is(err, nand.ErrDeviceFailed) {
				t.Fatalf("program %d: got %v, want ErrDeviceFailed", i, err)
			}
			errs++
			continue
		}
		if err != nil {
			t.Fatalf("program %d: unexpected error %v", i, err)
		}
	}
	fired := p.Fired()
	if len(fired) != 1 {
		t.Fatalf("fired %d times, want 1: %v", len(fired), fired)
	}
	if fired[0].Rule != "third-prog" || fired[0].Count != 3 {
		t.Fatalf("unexpected fired record %+v", fired[0])
	}
	if p.Crashed() {
		t.Fatal("plain error rule should not crash the device")
	}
}

func TestSegmentFilter(t *testing.T) {
	d := testDevice()
	p := NewPlan(1, Rule{Kind: KindError, Op: nand.OpProgram, Seg: 2, AfterN: 1})
	p.Arm(d)

	// Programs in segments 0 and 1 never match.
	program(t, d, d.Addr(0, 0), 10)
	program(t, d, d.Addr(1, 0), 11)

	payload := make([]byte, d.Config().SectorSize)
	if _, err := d.ProgramPage(0, d.Addr(2, 0), payload, dataOOB(12, 12)); !errors.Is(err, nand.ErrDeviceFailed) {
		t.Fatalf("segment-2 program: got %v, want ErrDeviceFailed", err)
	}
}

func TestCrashRuleBricksDeviceUntilDisarm(t *testing.T) {
	d := testDevice()
	p := NewPlan(1, Rule{Kind: KindCrash, Op: nand.OpErase, Seg: AnySeg, AfterN: 1})
	p.Arm(d)

	program(t, d, d.Addr(0, 0), 1)
	if _, err := d.EraseSegment(0, 1); !errors.Is(err, ErrCrashed) {
		t.Fatalf("erase: got %v, want ErrCrashed", err)
	}
	if !p.Crashed() {
		t.Fatal("Crashed() = false after crash rule fired")
	}
	// Every operation class now fails, including ones no rule matches.
	if _, _, _, err := d.ReadPage(0, d.Addr(0, 0)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash read: got %v, want ErrCrashed", err)
	}
	if _, _, err := d.ScanSegmentOOB(0, 0, nil); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash scan: got %v, want ErrCrashed", err)
	}
	payload := make([]byte, d.Config().SectorSize)
	if _, err := d.ProgramPage(0, d.Addr(0, 1), payload, dataOOB(2, 2)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash program: got %v, want ErrCrashed", err)
	}

	// Power restored: the device works again and the durable state survived.
	p.Disarm(d)
	if _, _, _, err := d.ReadPage(0, d.Addr(0, 0)); err != nil {
		t.Fatalf("post-recovery read: %v", err)
	}
}

func TestCrashAfterError(t *testing.T) {
	d := testDevice()
	p := NewPlan(1, Rule{Kind: KindError, Op: nand.OpProgram, Seg: AnySeg, AfterN: 1, CrashAfter: true})
	p.Arm(d)

	payload := make([]byte, d.Config().SectorSize)
	if _, err := d.ProgramPage(0, d.Addr(0, 0), payload, dataOOB(1, 1)); !errors.Is(err, nand.ErrDeviceFailed) {
		t.Fatalf("program: got %v, want ErrDeviceFailed", err)
	}
	if _, _, _, err := d.ReadPage(0, d.Addr(0, 0)); !errors.Is(err, ErrCrashed) {
		t.Fatalf("read after CrashAfter error: got %v, want ErrCrashed", err)
	}
}

func TestTornOOBCorruptsHeaderAndCrashes(t *testing.T) {
	d := testDevice()
	p := TornNote(header.TypeSnapCreate, 1)
	p.Arm(d)

	// Data headers are not matched by the type filter.
	program(t, d, d.Addr(0, 0), 1)

	payload := make([]byte, d.Config().SectorSize)
	note := header.Header{Type: header.TypeSnapCreate, LBA: 7, Epoch: 2, Seq: 9}.Marshal()
	if _, err := d.ProgramPage(0, d.Addr(0, 1), payload, note); err != nil {
		t.Fatalf("torn program itself must succeed (the bits land): %v", err)
	}
	if !p.Crashed() {
		t.Fatal("torn write must imply power loss")
	}
	if len(p.Fired()) != 1 {
		t.Fatalf("fired = %v, want exactly the torn-note event", p.Fired())
	}

	p.Disarm(d)
	// The data page's header survived intact; the note's is garbage.
	_, oob, _, err := d.ReadPage(0, d.Addr(0, 0))
	if err != nil {
		t.Fatalf("read data page: %v", err)
	}
	if h, err := header.Unmarshal(oob); err != nil || h.Type != header.TypeData || h.LBA != 1 {
		t.Fatalf("data header corrupted: %+v, %v", h, err)
	}
	_, oob, _, err = d.ReadPage(0, d.Addr(0, 1))
	if err != nil {
		t.Fatalf("read note page: %v", err)
	}
	if _, err := header.Unmarshal(oob); err == nil {
		t.Fatal("note header still parses — torn injection did not corrupt it")
	}
}

func TestProbabilisticRulesAreDeterministicBySeed(t *testing.T) {
	run := func(seed uint64) []Fired {
		d := testDevice()
		p := RandomFaults(seed, 0.3)
		p.Arm(d)
		payload := make([]byte, d.Config().SectorSize)
		idx := 0
		for i := 0; i < 24 && idx < 8; i++ {
			if _, err := d.ProgramPage(0, d.Addr(0, idx), payload, dataOOB(uint64(i), uint64(i))); err == nil {
				idx++
			}
			d.ReadPage(0, d.Addr(0, 0))
		}
		return p.Fired()
	}
	a, b := run(42), run(42)
	if len(a) == 0 {
		t.Fatal("prob 0.3 over ~48 ops fired nothing — suspicious")
	}
	if len(a) != len(b) {
		t.Fatalf("same seed, different firing counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different event %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := run(43)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced identical fault sequences")
	}
}

func TestOpCopyRuleHitsCopyPageOnly(t *testing.T) {
	d := testDevice()
	p := GCCopyError(1)
	p.Arm(d)

	program(t, d, d.Addr(0, 0), 1)
	if _, err := d.CopyPage(0, d.Addr(0, 0), d.Addr(1, 0)); !errors.Is(err, nand.ErrDeviceFailed) {
		t.Fatalf("copy: got %v, want ErrDeviceFailed", err)
	}
	// Foreground traffic is untouched, and the rule is spent.
	program(t, d, d.Addr(0, 1), 2)
	if _, err := d.CopyPage(0, d.Addr(0, 1), d.Addr(1, 0)); err != nil {
		t.Fatalf("second copy should succeed: %v", err)
	}
}

func TestDefaultsAndAccessors(t *testing.T) {
	p := NewPlan(0, Rule{Kind: KindError, Op: AnyOp, Seg: AnySeg})
	if p.String() != "-" {
		t.Fatalf("empty fired log String = %q", p.String())
	}
	if err := p.BeforeOp(nand.OpRead, 0); !errors.Is(err, nand.ErrDeviceFailed) {
		t.Fatalf("zero-trigger rule should default to AfterN=1: %v", err)
	}
	if p.String() == "-" {
		t.Fatal("String should render the fired event")
	}
	// MutateOOB with no torn rules is the identity.
	oob := []byte{1, 2, 3}
	if got := p.MutateOOB(0, oob); &got[0] != &oob[0] {
		t.Fatal("MutateOOB without torn rules must return input unchanged")
	}
}

// TestTransientEpisodeFailsThenClears: a transient target fails exactly
// Times attempts and then behaves normally, while other targets are
// untouched.
func TestTransientEpisodeFailsThenClears(t *testing.T) {
	d := testDevice()
	p := NewPlan(0, Rule{
		Kind: KindTransient, Op: nand.OpProgram, Seg: AnySeg, AfterN: 1, Times: 2,
	})
	p.Arm(d)

	payload := make([]byte, d.Config().SectorSize)
	addr := d.Addr(0, 0)
	for i := 0; i < 2; i++ {
		if _, err := d.ProgramPage(0, addr, payload, dataOOB(1, 1)); !errors.Is(err, nand.ErrTransient) {
			t.Fatalf("attempt %d: %v, want ErrTransient", i, err)
		}
	}
	// Third attempt at the same target succeeds — and the page really landed.
	if _, err := d.ProgramPage(0, addr, payload, dataOOB(1, 1)); err != nil {
		t.Fatalf("post-episode attempt: %v", err)
	}
	if !d.IsProgrammed(addr) {
		t.Fatal("post-episode program did not land")
	}
	// Only the first distinct target was in an episode (AfterN=1).
	if _, err := d.ProgramPage(0, d.Addr(0, 1), payload, dataOOB(2, 2)); err != nil {
		t.Fatalf("other target: %v", err)
	}
	if got := len(p.Fired()); got != 2 {
		t.Fatalf("fired %d events, want 2", got)
	}
}

// TestTransientCountSelectsNthTarget: AfterN counts distinct matching
// targets, so only the n-th new (op, page) pair enters an episode.
func TestTransientCountSelectsNthTarget(t *testing.T) {
	d := testDevice()
	p := NewPlan(0, Rule{Kind: KindTransient, Op: nand.OpRead, Seg: AnySeg, AfterN: 2, Times: 1})
	program(t, d, d.Addr(0, 0), 1)
	program(t, d, d.Addr(0, 1), 2)
	p.Arm(d)

	if _, _, _, err := d.ReadPage(0, d.Addr(0, 0)); err != nil {
		t.Fatalf("first target must not fault: %v", err)
	}
	if _, _, _, err := d.ReadPage(0, d.Addr(0, 1)); !errors.Is(err, nand.ErrTransient) {
		t.Fatalf("second target: %v, want ErrTransient", err)
	}
	if _, _, _, err := d.ReadPage(0, d.Addr(0, 1)); err != nil {
		t.Fatalf("retry of second target: %v", err)
	}
}

// TestRandomTransientsDeterministic: the same seed yields the same fired
// sequence; transient faults always clear within Times retries.
func TestRandomTransientsDeterministic(t *testing.T) {
	run := func() string {
		d := testDevice()
		p := RandomTransients(7, 0.5, 1)
		p.Arm(d)
		payload := make([]byte, d.Config().SectorSize)
		for i := 0; i < 8; i++ {
			addr := d.Addr(0, i)
			_, err := d.ProgramPage(0, addr, payload, dataOOB(uint64(i), uint64(i)))
			if errors.Is(err, nand.ErrTransient) {
				if _, err := d.ProgramPage(0, addr, payload, dataOOB(uint64(i), uint64(i))); err != nil {
					t.Fatalf("retry after single-failure episode: %v", err)
				}
			} else if err != nil {
				t.Fatal(err)
			}
		}
		return p.String()
	}
	a, b := run(), run()
	if a == b && a != "-" {
		return
	}
	if a != b {
		t.Fatalf("same seed, different transients:\n%s\n%s", a, b)
	}
	t.Fatal("prob 0.5 over 8 targets fired nothing; plan dead")
}

func TestCorruptReadClearsOnRetry(t *testing.T) {
	d := testDevice()
	payload := make([]byte, d.Config().SectorSize)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	addr := d.Addr(0, 0)
	if _, err := d.ProgramPage(0, addr, payload, dataOOB(1, 1)); err != nil {
		t.Fatal(err)
	}

	p := CorruptNth(nand.OpRead, 1)
	p.Arm(d)
	if _, _, _, err := d.ReadPage(0, addr); !errors.Is(err, nand.ErrCorruptData) {
		t.Fatalf("corrupted read: got %v, want ErrCorruptData", err)
	}
	// The damage lived in one transfer's copy: a re-read sees intact cells.
	data, _, _, err := d.ReadPage(0, addr)
	if err != nil {
		t.Fatalf("re-read after transient corruption: %v", err)
	}
	for i := range payload {
		if data[i] != payload[i] {
			t.Fatalf("re-read byte %d = %#x, want %#x", i, data[i], payload[i])
		}
	}
	if fired := p.Fired(); len(fired) != 1 || fired[0].Rule != "corrupt-nth" {
		t.Fatalf("fired log %v, want one corrupt-nth event", fired)
	}
}

func TestCorruptProgramPersistsUntilRewritten(t *testing.T) {
	d := testDevice()
	payload := make([]byte, d.Config().SectorSize)
	p := CorruptNth(nand.OpProgram, 2)
	p.Arm(d)

	program(t, d, d.Addr(0, 0), 1) // first target: intact
	program(t, d, d.Addr(0, 1), 2) // second target: cells store damaged bytes

	if data, _, _, err := d.ReadPage(0, d.Addr(0, 0)); err != nil || data == nil {
		t.Fatalf("intact page read: %v", err)
	}
	// Every read of the damaged page detects the corruption — retries don't help.
	for attempt := 0; attempt < 3; attempt++ {
		if _, _, _, err := d.ReadPage(0, d.Addr(0, 1)); !errors.Is(err, nand.ErrCorruptData) {
			t.Fatalf("attempt %d: got %v, want ErrCorruptData", attempt, err)
		}
	}
	// Rewriting the data elsewhere is clean: only the episode target is hit.
	if _, err := d.ProgramPage(0, d.Addr(0, 2), payload, dataOOB(2, 3)); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := d.ReadPage(0, d.Addr(0, 2)); err != nil {
		t.Fatalf("rewritten copy: %v", err)
	}
}

func TestCorruptDataStopsBatchReadAtCorruptPage(t *testing.T) {
	d := testDevice()
	for i := 0; i < 4; i++ {
		program(t, d, d.Addr(0, i), uint64(10+i))
	}
	p := CorruptNth(nand.OpRead, 3)
	p.Arm(d)

	addrs := []nand.PageAddr{d.Addr(0, 0), d.Addr(0, 1), d.Addr(0, 2), d.Addr(0, 3)}
	var datas, oobs [][]byte
	n, _, err := d.ReadPagesInto(0, addrs, &datas, &oobs)
	if !errors.Is(err, nand.ErrCorruptData) {
		t.Fatalf("batch read: got %v, want ErrCorruptData", err)
	}
	if n != 2 || len(datas) != 2 {
		t.Fatalf("batch landed %d pages (datas %d), want 2 before the corrupt third", n, len(datas))
	}
}

func TestRandomCorruptDataDeterministic(t *testing.T) {
	run := func(seed uint64) string {
		d := testDevice()
		p := RandomCorruptData(seed, 0.5, 1)
		p.Arm(d)
		payload := make([]byte, d.Config().SectorSize)
		for i := 0; i < 8; i++ {
			if _, err := d.ProgramPage(0, d.Addr(0, i), payload, dataOOB(uint64(i), uint64(i))); err != nil {
				t.Fatalf("program %d: %v", i, err)
			}
		}
		for i := 0; i < 8; i++ {
			// Reads may detect either program- or read-side corruption; both
			// clear within two extra attempts for Times == 1 episodes unless
			// the program side persisted, which the log records identically.
			for attempt := 0; attempt < 3; attempt++ {
				if _, _, _, err := d.ReadPage(0, d.Addr(0, i)); err == nil || attempt == 2 {
					break
				}
			}
		}
		return p.String()
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed, different corruption:\n%s\n%s", a, b)
	}
	if a == "-" {
		t.Fatal("prob 0.5 over 16 targets fired nothing; plan dead")
	}
}

func TestCorruptDataKindString(t *testing.T) {
	if got := KindCorruptData.String(); got != "corrupt-data" {
		t.Fatalf("KindCorruptData.String() = %q", got)
	}
}

func TestFlipBitsDamagesCopyNotOriginal(t *testing.T) {
	orig := make([]byte, 64)
	for i := range orig {
		orig[i] = 0xAA
	}
	out := flipBits(1, 2, 3, 4, orig)
	if &out[0] == &orig[0] {
		t.Fatal("flipBits returned the original backing array")
	}
	for i := range orig {
		if orig[i] != 0xAA {
			t.Fatalf("original byte %d modified to %#x", i, orig[i])
		}
	}
	diff := 0
	for i := range out {
		if out[i] != orig[i] {
			diff++
		}
	}
	if diff < 1 || diff > 3 {
		t.Fatalf("flipBits changed %d bytes, want 1..3", diff)
	}
}

package ftl

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"iosnap/internal/model"
	"iosnap/internal/nand"
	"iosnap/internal/sim"
)

// testConfig returns a small, fast geometry with payload storage for
// content verification: 16 segments × 16 pages × 512 B.
func testConfig() Config {
	nc := nand.DefaultConfig()
	nc.SectorSize = 512
	nc.PagesPerSegment = 16
	nc.Segments = 16
	nc.Channels = 2
	nc.StoreData = true
	nc.ReadLatency = 2 * sim.Microsecond
	nc.ProgramLatency = 4 * sim.Microsecond
	nc.EraseLatency = 50 * sim.Microsecond
	cfg := DefaultConfig(nc)
	cfg.GCWindow = 10 * sim.Millisecond
	return cfg
}

func newTestFTL(t *testing.T) *FTL {
	t.Helper()
	f, err := New(testConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// sectorPattern builds a recognizable sector payload for lba/version.
func sectorPattern(ss int, lba int64, version byte) []byte {
	b := make([]byte, ss)
	for i := range b {
		b[i] = byte(lba) ^ byte(lba>>8) ^ version ^ byte(i)
	}
	return b
}

// writeLBAs writes version ver of LBAs [lo, hi), one sector at a time.
func writeLBAs(t *testing.T, f *FTL, now sim.Time, lo, hi int64, ver byte) sim.Time {
	t.Helper()
	for lba := lo; lba < hi; lba++ {
		var err error
		if now, err = f.Write(now, lba, sectorPattern(f.SectorSize(), lba, ver)); err != nil {
			t.Fatalf("write LBA %d v%d: %v", lba, ver, err)
		}
	}
	return now
}

// readLBAs fails unless LBAs [lo, hi) read back version ver.
func readLBAs(t *testing.T, f *FTL, now sim.Time, lo, hi int64, ver byte) {
	t.Helper()
	buf := make([]byte, f.SectorSize())
	for lba := lo; lba < hi; lba++ {
		if _, err := f.Read(now, lba, buf); err != nil {
			t.Fatalf("read LBA %d: %v", lba, err)
		}
		if !bytes.Equal(buf, sectorPattern(f.SectorSize(), lba, ver)) {
			t.Fatalf("LBA %d does not hold v%d", lba, ver)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	f := newTestFTL(t)
	readLBAs(t, f, writeLBAs(t, f, 0, 0, 20, 1), 0, 20, 1)
}

func TestUnwrittenReadsZero(t *testing.T) {
	f := newTestFTL(t)
	buf := bytes.Repeat([]byte{0xFF}, f.SectorSize())
	if _, err := f.Read(0, 99, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("unwritten sector did not read as zeros")
		}
	}
}

func TestOverwriteReturnsNewest(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now, _ := f.Write(0, 5, sectorPattern(ss, 5, 1))
	now, _ = f.Write(now, 5, sectorPattern(ss, 5, 2))
	buf := make([]byte, ss)
	if _, err := f.Read(now, 5, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, sectorPattern(ss, 5, 2)) {
		t.Fatal("read returned stale data after overwrite")
	}
	if f.MappedSectors() != 1 {
		t.Fatalf("MappedSectors = %d", f.MappedSectors())
	}
}

func TestMultiSectorIO(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	data := append(sectorPattern(ss, 10, 1), sectorPattern(ss, 11, 1)...)
	now, err := f.Write(0, 10, data)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2*ss)
	if _, err := f.Read(now, 10, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data) {
		t.Fatal("multi-sector round trip failed")
	}
}

func TestIOErrors(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	if _, err := f.Write(0, -1, make([]byte, ss)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative lba: %v", err)
	}
	if _, err := f.Write(0, f.Sectors(), make([]byte, ss)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("past-end lba: %v", err)
	}
	if _, err := f.Write(0, 0, make([]byte, ss-1)); !errors.Is(err, ErrBadLength) {
		t.Fatalf("short buffer: %v", err)
	}
	if _, err := f.Read(0, 0, make([]byte, 0)); !errors.Is(err, ErrBadLength) {
		t.Fatalf("empty read: %v", err)
	}
	// lba+n wraps for an lba near MaxInt64; the range check must not add.
	if _, err := f.Write(0, math.MaxInt64, make([]byte, ss)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("write at MaxInt64: %v", err)
	}
	if _, err := f.Read(0, math.MaxInt64, make([]byte, ss)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read at MaxInt64: %v", err)
	}
	if _, err := f.Trim(0, math.MaxInt64-1, 2); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("trim ending at MaxInt64+1: %v", err)
	}
	if _, err := f.Trim(0, 1, math.MaxInt64); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("trim of MaxInt64 sectors: %v", err)
	}
	if f.MappedSectors() != 0 {
		t.Fatalf("a refused request left %d translations", f.MappedSectors())
	}
}

func TestClosedRejectsIO(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	if _, err := f.Close(0); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(0, 0, make([]byte, ss)); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	if _, err := f.Close(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close: %v", err)
	}
}

func TestTrim(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now, _ := f.Write(0, 7, sectorPattern(ss, 7, 1))
	now, err := f.Trim(now, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{0xFF}, ss)
	if _, err := f.Read(now, 7, buf); err != nil {
		t.Fatal(err)
	}
	for _, b := range buf {
		if b != 0 {
			t.Fatal("trimmed sector did not read as zeros")
		}
	}
	if f.Stats().Trims != 1 {
		t.Fatal("trim not counted")
	}
}

// fillAndChurn writes enough churn to force segment cleaning. It returns
// the image written and the final time.
func fillAndChurn(t *testing.T, f *FTL, writes int, space int64, seed uint64) (*model.Image, sim.Time) {
	t.Helper()
	rng := sim.NewRNG(seed)
	im := model.NewImage()
	ss := f.SectorSize()
	now := sim.Time(0)
	for i := 0; i < writes; i++ {
		f.Scheduler().RunUntil(now)
		lba := rng.Int63n(space)
		v := uint64(i + 1)
		d, err := f.Write(now, lba, model.Sectors(ss, lba, 1, v))
		if err != nil {
			t.Fatalf("write %d (lba %d): %v", i, lba, err)
		}
		im.Write(lba, v)
		now = d
	}
	now = f.Scheduler().Drain(now)
	return im, now
}

func TestGCPreservesData(t *testing.T) {
	f := newTestFTL(t)
	// 16 segs × 16 pages = 256 physical; user = 208. Write 1000 sectors over
	// 100 LBAs: heavy churn, many cleanings.
	im, now := fillAndChurn(t, f, 1000, 100, 42)
	st := f.Stats()
	if st.GCRuns == 0 {
		t.Fatal("churn did not trigger any cleaning")
	}
	if err := im.Verify(f.SectorSize(), model.At(f.Read, now)); err != nil {
		t.Fatalf("after cleaning: %v", err)
	}
	if st.WriteAmplify <= 1.0 {
		t.Fatalf("write amplification %v not > 1 after cleaning", st.WriteAmplify)
	}
}

func TestGCReclaimsSpace(t *testing.T) {
	f := newTestFTL(t)
	_, now := fillAndChurn(t, f, 2000, 50, 7)
	_ = now
	if f.FreeSegments() == 0 {
		t.Fatal("cleaner never reclaimed a segment")
	}
	// Liveness: mapped sectors is bounded by the LBA space touched.
	if f.MappedSectors() > 50 {
		t.Fatalf("MappedSectors = %d", f.MappedSectors())
	}
}

func TestValidityConsistentWithMap(t *testing.T) {
	f := newTestFTL(t)
	_, _ = fillAndChurn(t, f, 800, 80, 13)
	checkValidity(t, f)
}

func TestDeviceFullOfLiveData(t *testing.T) {
	cfg := testConfig()
	f, err := New(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ss := f.SectorSize()
	now := sim.Time(0)
	// Write every user sector once (all live), then churn: must not error,
	// must clean, and must preserve.
	for lba := int64(0); lba < f.Sectors(); lba++ {
		f.Scheduler().RunUntil(now)
		d, err := f.Write(now, lba, sectorPattern(ss, lba, 0))
		if err != nil {
			t.Fatalf("fill write %d: %v", lba, err)
		}
		now = d
	}
	for i := 0; i < 300; i++ {
		f.Scheduler().RunUntil(now)
		lba := int64(i) % 100 // churn only the low LBAs; high ones stay cold
		d, err := f.Write(now, lba, sectorPattern(ss, lba, 1))
		if err != nil {
			t.Fatalf("churn write %d: %v", i, err)
		}
		now = d
	}
	buf := make([]byte, ss)
	if _, err := f.Read(now, 0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, sectorPattern(ss, 0, 1)) {
		t.Fatal("churned sector lost")
	}
	if _, err := f.Read(now, f.Sectors()-1, buf); err != nil {
		t.Fatal(err)
	}
	// The high sectors were only written in the fill pass.
	if !bytes.Equal(buf, sectorPattern(ss, f.Sectors()-1, 0)) {
		t.Fatal("cold sector lost during cleaning")
	}
}

func TestStatsCounting(t *testing.T) {
	f := newTestFTL(t)
	ss := f.SectorSize()
	now, _ := f.Write(0, 0, make([]byte, 2*ss))
	if _, err := f.Read(now, 0, make([]byte, ss)); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()
	if st.UserWrites != 2 || st.UserReads != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesWritten != int64(2*ss) || st.BytesRead != int64(ss) {
		t.Fatalf("bytes = %+v", st)
	}
	if st.MapMemory <= 0 {
		t.Fatal("MapMemory not populated")
	}
}

func TestWriteLatencyReasonable(t *testing.T) {
	// A single 512 B write on an idle device should take roughly the program
	// latency (plus small CPU/bus costs), not milliseconds.
	f := newTestFTL(t)
	done, err := f.Write(0, 0, make([]byte, f.SectorSize()))
	if err != nil {
		t.Fatal(err)
	}
	lat := done.Sub(0)
	min := testConfig().Nand.ProgramLatency
	if lat < min || lat > 3*min {
		t.Fatalf("idle write latency %v outside [%v, %v]", lat, min, 3*min)
	}
}

// TestConfigValidation: New refuses an inconsistent config, and one that
// asks the vanilla FTL for a paged map or periodic checkpoints.
func TestConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name  string
		tweak func(*Config)
	}{
		{"no over-provisioning", func(c *Config) { c.UserSectors = c.Nand.TotalPages() }},
		{"zero GCChunk", func(c *Config) { c.GCChunk = 0 }},
		{"zero reserve", func(c *Config) { c.ReserveSegments = 0 }},
		{"negative CheckpointInterval", func(c *Config) { c.CheckpointInterval = -sim.Millisecond }},
		{"paged map", func(c *Config) { c.MapCachePages = 2 }},
		{"periodic checkpoints", func(c *Config) { c.CheckpointInterval = sim.Millisecond }},
	} {
		cfg := testConfig()
		tc.tweak(&cfg)
		if _, err := New(cfg, nil); err == nil {
			t.Errorf("%s: config accepted", tc.name)
		}
	}
}

func TestForceCleanVanilla(t *testing.T) {
	f := newTestFTL(t)
	now := writeLBAs(t, f, writeLBAs(t, f, 0, 0, 32, 1), 0, 8, 2)
	target := f.UsedSegments()[0]
	if err := f.ForceClean(now, target); err != nil {
		t.Fatalf("ForceClean: %v", err)
	}
	if !f.CleaningActive() {
		t.Fatal("cleaning not active")
	}
	now = f.Scheduler().Drain(now)
	if f.Device().ProgrammedInSegment(target) != 0 {
		t.Fatal("target not erased")
	}
	readLBAs(t, f, now, 0, 8, 2)
	readLBAs(t, f, now, 8, 32, 1)
	if err := f.ForceClean(now, 999); err == nil {
		t.Fatal("bad segment accepted")
	}
}

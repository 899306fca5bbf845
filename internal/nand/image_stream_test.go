package nand

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"iosnap/internal/vfs"
)

// seededDevice builds a deterministic, well-worn device: random programs
// across several segments, erases, health marks, an anchor, the works.
func seededDevice(t *testing.T, cfg Config, seed int64) *Device {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := New(cfg)
	// Program a prefix of most segments (in order, per SequentialProg).
	for seg := 0; seg < cfg.Segments; seg++ {
		if rng.Intn(4) == 0 {
			continue // leave some segments untouched
		}
		n := rng.Intn(cfg.PagesPerSegment + 1)
		for p := 0; p < n; p++ {
			data := make([]byte, cfg.SectorSize)
			rng.Read(data)
			oob := make([]byte, 8)
			rng.Read(oob)
			if _, err := d.ProgramPage(0, d.Addr(seg, p), data, oob); err != nil {
				t.Fatalf("program seg %d page %d: %v", seg, p, err)
			}
		}
		if n == cfg.PagesPerSegment && rng.Intn(2) == 0 {
			if _, err := d.EraseSegment(0, seg); err != nil {
				t.Fatal(err)
			}
		}
	}
	d.MarkSuspect(1)
	d.SetAnchor(&Anchor{ID: uint64(seed), Addrs: []PageAddr{1, 5, 9}})
	return d
}

// TestImageFingerprintModeStream round-trips a fingerprint-only device
// (data absent, dlen 0) and compares the whole state, not just the page.
func TestImageFingerprintModeStream(t *testing.T) {
	cfg := testConfig()
	cfg.StoreData = false
	d := New(cfg)
	data := fill(512, 0x77)
	if _, err := d.ProgramPage(0, 0, data, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := d2.PageFingerprint(0)
	if err != nil {
		t.Fatal(err)
	}
	if fp != Fingerprint(data) {
		t.Fatal("fingerprint not preserved")
	}
	if d2.StateDigest() != d.StateDigest() {
		t.Fatal("digest drifted through fingerprint-mode round trip")
	}
}

// TestLoadImageTruncatedPrefix: every proper prefix of an image
// must fail cleanly — no partial device, no panic — whether the cut lands
// mid-magic, mid-frame-header, mid-payload, mid-CRC, or between frames
// (missing end frame).
func TestLoadImageTruncatedPrefix(t *testing.T) {
	d := seededDevice(t, testConfig(), 3)
	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	// Exhaustive over short prefixes, sampled over the rest (the image is a
	// few KB; step keeps the test fast while still hitting every region).
	step := 1
	if len(img) > 4096 {
		step = len(img) / 4096
	}
	for cut := 0; cut < len(img); cut += step {
		dev, err := LoadImage(bytes.NewReader(img[:cut]))
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes loaded successfully", cut, len(img))
		}
		if dev != nil {
			t.Fatalf("prefix of %d bytes returned a partial device alongside error %v", cut, err)
		}
	}
	// And the full image still loads.
	if _, err := LoadImage(bytes.NewReader(img)); err != nil {
		t.Fatalf("full image: %v", err)
	}
}

// TestLoadImageBitDamage: a flipped byte anywhere after the magic must be
// caught (CRC on every frame), and trailing garbage is rejected.
func TestLoadImageBitDamage(t *testing.T) {
	d := seededDevice(t, testConfig(), 5)
	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	step := 1
	if len(img) > 2048 {
		step = len(img) / 2048
	}
	for pos := len(imageMagic); pos < len(img); pos += step {
		damaged := append([]byte(nil), img...)
		damaged[pos] ^= 0x40
		if _, err := LoadImage(bytes.NewReader(damaged)); err == nil {
			t.Fatalf("bit flip at %d/%d accepted", pos, len(img))
		}
	}
	trailing := append(append([]byte(nil), img...), 0xAB, 0xCD)
	if _, err := LoadImage(bytes.NewReader(trailing)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

// TestLoadImageRejectsDuplicateSegment: an image carrying the same segment
// index twice would overwrite one segment twice and leave another
// fresh-from-New. It is rejected, even though every frame checksums.
func TestLoadImageRejectsDuplicateSegment(t *testing.T) {
	cfg := testConfig()
	d := New(cfg)
	for seg := 0; seg < cfg.Segments; seg++ {
		if _, err := d.ProgramPage(0, d.Addr(seg, 0), fill(512, byte(0x10+seg)), []byte{byte(seg)}); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("streaming", func(t *testing.T) {
		var buf bytes.Buffer
		if err := d.SaveImage(&buf); err != nil {
			t.Fatal(err)
		}
		// The writer emits one frame per touched segment in index order;
		// duplicate a middle segment frame wholesale (frames are
		// self-checksummed, so the copy remains internally valid).
		img := buf.Bytes()
		frames := splitFrames(t, img)
		if len(frames) < 4 {
			t.Fatalf("expected >= 4 frames, got %d", len(frames))
		}
		var crafted bytes.Buffer
		crafted.WriteString(imageMagic)
		crafted.Write(frames[0]) // header
		crafted.Write(frames[1]) // segment 0
		crafted.Write(frames[1]) // segment 0 again
		for _, f := range frames[2:] {
			crafted.Write(f)
		}
		if _, err := LoadImage(bytes.NewReader(crafted.Bytes())); !errors.Is(err, ErrImageCorrupt) {
			t.Fatalf("duplicate-segment image: %v", err)
		}
	})
}

// TestLoadImageRejectsBadEndCounts: an end frame whose totals disagree with
// the frames actually present (a segment frame dropped by a hole-punching
// copy, say) is rejected even though every surviving frame checksums.
func TestLoadImageRejectsBadEndCounts(t *testing.T) {
	d := seededDevice(t, testConfig(), 11)
	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	frames := splitFrames(t, buf.Bytes())
	if len(frames) < 3 {
		t.Fatalf("need >= 3 frames, got %d", len(frames))
	}
	var crafted bytes.Buffer
	crafted.WriteString(imageMagic)
	crafted.Write(frames[0])
	// Drop one segment frame, keep the rest including the end frame.
	for _, f := range frames[2:] {
		crafted.Write(f)
	}
	if _, err := LoadImage(bytes.NewReader(crafted.Bytes())); !errors.Is(err, ErrImageCorrupt) {
		t.Fatalf("image with a dropped segment frame: %v", err)
	}
}

// splitFrames cuts an image (past the magic) into whole frames.
func splitFrames(t *testing.T, img []byte) [][]byte {
	t.Helper()
	if !bytes.HasPrefix(img, []byte(imageMagic)) {
		t.Fatal("image does not open with the magic")
	}
	rest := img[len(imageMagic):]
	var frames [][]byte
	for len(rest) > 0 {
		if len(rest) < 9 {
			t.Fatalf("trailing %d bytes are not a frame", len(rest))
		}
		n := int(uint32(rest[1])<<24 | uint32(rest[2])<<16 | uint32(rest[3])<<8 | uint32(rest[4]))
		total := 5 + n + 4
		if len(rest) < total {
			t.Fatalf("frame wants %d bytes, %d remain", total, len(rest))
		}
		frames = append(frames, rest[:total])
		rest = rest[total:]
	}
	return frames
}

// TestSaveImageCrashTorture drives the whole atomic image-write pipeline
// (vfs.AtomicFile + SaveImage) against the vfs fake with a persistence
// fault injected at every successive operation, crashing after each
// attempt: the durable image must always be either the complete old image
// or the complete new one — LoadImage never sees a torn file.
func TestSaveImageCrashTorture(t *testing.T) {
	cfg := testConfig()
	old := seededDevice(t, cfg, 21)
	newer := seededDevice(t, cfg, 22)
	oldDigest, newDigest := old.StateDigest(), newer.StateDigest()
	if oldDigest == newDigest {
		t.Fatal("seeds collided")
	}

	writeImage := func(m *vfs.Mem, d *Device) error {
		a, err := vfs.NewAtomicFile(m, "dir/dev.img")
		if err != nil {
			return err
		}
		if err := d.SaveImage(a); err != nil {
			a.Abort()
			return err
		}
		return a.Commit()
	}

	for failAt := 0; ; failAt++ {
		m := vfs.NewMem()
		if err := writeImage(m, old); err != nil {
			t.Fatal(err)
		}
		m.Crash() // baseline: the old image is durable
		n := 0
		injected := false
		m.FailOp = func(op vfs.Op, name string) error {
			if n == failAt {
				n++
				injected = true
				return fmt.Errorf("injected %s failure", op)
			}
			n++
			return nil
		}
		err := writeImage(m, newer)
		m.FailOp = nil
		if !injected {
			if err != nil {
				t.Fatalf("failAt=%d: clean save errored: %v", failAt, err)
			}
			break // every op index covered
		}
		m.Crash()
		f, oerr := m.Open("dir/dev.img")
		if oerr != nil {
			t.Fatalf("failAt=%d: durable image lost after crash: %v", failAt, oerr)
		}
		dev, lerr := LoadImage(f)
		f.Close()
		if lerr != nil {
			t.Fatalf("failAt=%d: durable image torn: %v", failAt, lerr)
		}
		if got := dev.StateDigest(); got != oldDigest && got != newDigest {
			t.Fatalf("failAt=%d: crash surfaced a third device state %#x", failAt, got)
		}
	}

	// Final sanity: the clean path leaves the new image.
	m := vfs.NewMem()
	if err := writeImage(m, old); err != nil {
		t.Fatal(err)
	}
	if err := writeImage(m, newer); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	f, err := m.Open("dir/dev.img")
	if err != nil {
		t.Fatal(err)
	}
	dev, err := LoadImage(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if dev.StateDigest() != newDigest {
		t.Fatal("clean save did not persist the new image")
	}
}

// TestImageTBClassAllocationBounds is the acceptance gate for streaming
// persistence: saving and loading a TB-class device (PR 8 geometry) with a
// handful of touched segments must allocate O(touched segments), never
// O(device). The image goes through the vfs fake, whose write accounting
// also proves the untouched 256K segments were skipped on the wire.
func TestImageTBClassAllocationBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SectorSize = 4096
	cfg.PagesPerSegment = 1024 // 4 MiB data per segment
	cfg.Segments = 262144      // 1 TiB raw
	cfg.StoreData = true
	if cfg.Capacity() != 1<<40 {
		t.Fatalf("geometry is %d bytes, want 1 TiB", cfg.Capacity())
	}
	d := New(cfg)
	const touched = 3
	payload := make([]byte, cfg.SectorSize)
	for seg := 0; seg < touched; seg++ {
		for p := 0; p < cfg.PagesPerSegment; p++ {
			payload[0], payload[1] = byte(seg), byte(p)
			if _, err := d.ProgramPage(0, d.Addr(seg, p), payload, []byte{byte(seg)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := d.StateDigest()
	segBytes := int64(cfg.PagesPerSegment) * int64(cfg.SectorSize)
	// Generous O(segment) budget: a few segments of payload plus framing,
	// buffers, and the fake's append growth. The device is 1 TiB and holds
	// 12 MiB of data; an O(device) implementation (or one that frames all
	// 262144 segments) blows through this by orders of magnitude.
	budget := (touched + 4) * segBytes * 3

	m := vfs.NewMem()
	var ms1, ms2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	f, err := m.Create("dev.img")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.SaveImage(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	runtime.ReadMemStats(&ms2)
	if alloc := int64(ms2.TotalAlloc - ms1.TotalAlloc); alloc > budget {
		t.Fatalf("SaveImage of a 1 TiB device allocated %d bytes, budget %d (O(segment) violated)", alloc, budget)
	}
	if _, bytesWritten := m.WriteCounts(); int64(bytesWritten) > budget {
		t.Fatalf("image is %d bytes on the wire, budget %d (untouched segments not skipped?)", bytesWritten, budget)
	}

	r, err := m.Open("dev.img")
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	d2, err := LoadImage(r)
	runtime.ReadMemStats(&ms2)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if alloc := int64(ms2.TotalAlloc - ms1.TotalAlloc); alloc > budget {
		t.Fatalf("LoadImage of a 1 TiB image allocated %d bytes, budget %d (O(segment) violated)", alloc, budget)
	}
	if d2.StateDigest() != want {
		t.Fatal("TB-class round trip lost state")
	}
	// Spot-check: a page in a touched segment reads back; the far end of
	// the device is still erased.
	got, _, _, err := d2.ReadPage(0, d2.Addr(1, 7))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 1 || got[1] != 7 {
		t.Fatalf("page content lost: %v", got[:2])
	}
	if d2.IsProgrammed(d2.Addr(cfg.Segments-1, 0)) {
		t.Fatal("untouched segment materialized as programmed")
	}
}

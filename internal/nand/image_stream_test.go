package nand

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"iosnap/internal/codec"
	"iosnap/internal/vfs"
)

// seededDevice builds a deterministic, well-worn device: random programs
// across several segments, erases, health marks, an anchor, the works.
func seededDevice(t testing.TB, cfg Config, seed int64) *Device {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	d := New(cfg)
	// Program a prefix of most segments (pages program in order).
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
	d2, err := LoadImage(bytes.NewReader(buf.Bytes()))
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

// TestLoadImageTruncatedPrefix: every proper prefix of an image must fail
// cleanly — no partial device, no panic, ErrImageCorrupt naming the frame
// the cut lands in — whether the cut lands mid-magic, mid-frame-header,
// mid-payload, mid-CRC, or between frames (missing end frame), from memory
// and from a file. The empty prefix through a file is an empty file, which
// the kernel refuses to map.
func TestLoadImageTruncatedPrefix(t *testing.T) {
	d := seededDevice(t, testConfig(), 3)
	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	starts := frameStarts(t, img)
	// Exhaustive over short prefixes, sampled over the rest (the image is a
	// few KB; step keeps the test fast while still hitting every region).
	step := 1
	if len(img) > 4096 {
		step = len(img) / 4096
	}
	defer checkNoGoroutineLeak(t, runtime.NumGoroutine())
	for _, src := range imageSources(t) {
		for cut := 0; cut < len(img); cut += step {
			dev, err := src.load(img[:cut])
			wantCorruptAt(t, fmt.Sprintf("%s: prefix of %d/%d bytes", src.name, cut, len(img)), dev, err, frameOf(starts, cut))
		}
		// And the full image still loads, last from this source.
		if _, err := src.load(img); err != nil {
			t.Fatalf("%s: full image: %v", src.name, err)
		}
	}
}

// TestLoadImageBitDamage: a flipped byte anywhere after the magic must be
// caught (CRC on every frame) and reported as the frame it lies in, and
// trailing garbage is rejected, from memory and from a file. So is a header
// frame re-sealed around a payload that does not decode — cut short, one
// byte too long, or of another format version: its CRC holds, its content
// does not.
func TestLoadImageBitDamage(t *testing.T) {
	d := seededDevice(t, testConfig(), 5)
	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	img := buf.Bytes()
	starts := frameStarts(t, img)
	step := 1
	if len(img) > 2048 {
		step = len(img) / 2048
	}
	defer checkNoGoroutineLeak(t, runtime.NumGoroutine())
	sources := imageSources(t)
	for _, src := range sources {
		for pos := len(imageMagic); pos < len(img); pos += step {
			damaged := append([]byte(nil), img...)
			damaged[pos] ^= 0x40
			dev, err := src.load(damaged)
			wantCorruptAt(t, fmt.Sprintf("%s: bit flip at %d/%d", src.name, pos, len(img)), dev, err, frameOf(starts, pos))
		}
		trailing := append(append([]byte(nil), img...), 0xAB, 0xCD)
		if dev, err := src.load(trailing); !errors.Is(err, ErrImageCorrupt) || dev != nil {
			t.Fatalf("%s: trailing garbage: LoadImage = %v, %v", src.name, dev, err)
		}
	}
	imgFrames := splitFrames(t, img)
	hdr := imgFrames[0][codec.HeadLen : len(imgFrames[0])-codec.TailLen]
	oldVersion := append([]byte(nil), hdr...)
	binary.LittleEndian.PutUint32(oldVersion, imageVersion-1)
	for name, payload := range map[string][]byte{
		"short header":     hdr[:len(hdr)-3],
		"long header":      append(append([]byte(nil), hdr...), 0),
		"version 4 header": oldVersion,
	} {
		resealed := appendFrame([]byte(imageMagic), codec.ImageHeader, payload)
		for _, f := range imgFrames[1:] {
			resealed = append(resealed, f...)
		}
		for _, src := range sources {
			dev, err := src.load(resealed)
			wantCorruptAt(t, fmt.Sprintf("%s: %s", src.name, name), dev, err, len(imageMagic))
		}
	}

	// A segment frame whose page carries a payload of a length its device
	// does not keep — none on a StoreData device, a sector on a
	// fingerprint-mode one — is refused; the same frame with the device's
	// length loads.
	fpCfg := testConfig()
	fpCfg.StoreData = false
	for _, tc := range []struct {
		name      string
		cfg       Config
		keep, bad int
	}{
		{"StoreData page without payload", testConfig(), 512, 0},
		{"fingerprint-mode page with payload", fpCfg, 0, 512},
	} {
		for _, src := range sources {
			if dev, err := src.load(onePageImage(t, tc.cfg, tc.keep)); err != nil || dev == nil {
				t.Fatalf("%s: %s: the frame with a %d-byte payload: LoadImage = %v, %v", src.name, tc.name, tc.keep, dev, err)
			}
			dev, err := src.load(onePageImage(t, tc.cfg, tc.bad))
			if dev != nil || !errors.Is(err, ErrImageCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("payload %d bytes, want %d", tc.bad, tc.keep)) {
				t.Fatalf("%s: %s: LoadImage = %v, %v; want no device and ErrImageCorrupt naming the payload length", src.name, tc.name, dev, err)
			}
		}
	}

	// Two damaged segment frames side by side, so both are in flight at
	// once: whichever a worker rejects first, the load reports the earlier.
	buf.Reset()
	if err := pinnedImageDevice(t, manySegmentsConfig(), 5).SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	frames := splitFrames(t, buf.Bytes())
	damaged := []byte(imageMagic)
	var first int
	for k, f := range frames {
		if k == 3 {
			first = len(damaged)
		}
		f = append([]byte(nil), f...)
		if k == 3 || k == 4 {
			f[len(f)/2] ^= 0x40
		}
		damaged = append(damaged, f...)
	}
	want := fmt.Sprintf("frame at byte %d: %v", first, codec.ErrBadChecksum)
	for _, src := range sources {
		for i := 0; i < 50; i++ {
			dev, err := src.load(damaged)
			if dev != nil || err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("%s: load %d of an image with two damaged frames: %v, %v; want no device and %q", src.name, i, dev, err, want)
			}
		}
	}
}

// frameStarts returns the offset of each of img's frames, and its length.
func frameStarts(t *testing.T, img []byte) []int {
	t.Helper()
	starts := []int{len(imageMagic)}
	for _, f := range splitFrames(t, img) {
		starts = append(starts, starts[len(starts)-1]+len(f))
	}
	return starts
}

// frameOf returns the offset of the frame byte pos lies in, given the frame
// offsets of the whole image; pos before the first frame lies in the magic.
func frameOf(starts []int, pos int) int {
	at := pos
	for _, s := range starts {
		if s <= pos {
			at = s
		}
	}
	return at
}

// wantCorruptAt fails t unless a load returned no device and
// ErrImageCorrupt naming the frame at byte at, or, for an offset inside the
// magic, the missing magic.
func wantCorruptAt(t *testing.T, what string, dev *Device, err error, at int) {
	t.Helper()
	want := fmt.Sprintf(`at byte %d\b`, at)
	if at < len(imageMagic) {
		want = "image magic"
	}
	if dev != nil || !errors.Is(err, ErrImageCorrupt) || !regexp.MustCompile(want).MatchString(err.Error()) {
		t.Fatalf("%s: LoadImage = %v, %v; want no device and ErrImageCorrupt matching %q", what, dev, err, want)
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
		_, _, n, err := codec.Cut(rest, codec.MaxPayload)
		if err != nil {
			t.Fatalf("%d bytes left are not a frame: %v", len(rest), err)
		}
		frames = append(frames, rest[:n])
		rest = rest[n:]
	}
	return frames
}

// TestSaveImageCrashTorture drives the whole atomic image-write pipeline
// (vfs.AtomicFile + SaveImage) against the vfs fake with a persistence
// fault injected at every successive operation, crashing after each
// attempt: the durable image must always be either the complete old image
// or the complete new one — LoadImage never sees a torn file.
func TestSaveImageCrashTorture(t *testing.T) {
	defer checkNoGoroutineLeak(t, runtime.NumGoroutine())
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

// failingWriter takes left bytes, then fails every write.
type failingWriter struct{ left int }

var errWriterFull = errors.New("writer full")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.left {
		n := w.left
		w.left = 0
		return n, errWriterFull
	}
	w.left -= len(p)
	return len(p), nil
}

// TestSaveImageWriterFailsMidway: a writer that fails after k bytes, for k
// across a whole image of more frames than are ever in flight, fails the
// save with the writer's error and leaves no worker behind: after each
// failure every segment's health is rewritten, which races (under -race)
// with any worker still staging a frame.
func TestSaveImageWriterFailsMidway(t *testing.T) {
	defer checkNoGoroutineLeak(t, runtime.NumGoroutine())
	cfg := manySegmentsConfig()
	d := pinnedImageDevice(t, cfg, 9)
	var img bytes.Buffer
	if err := d.SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	for k := 0; k < img.Len(); k += 997 {
		if err := d.SaveImage(&failingWriter{left: k}); !errors.Is(err, errWriterFull) {
			t.Fatalf("writer failing after %d of %d bytes: SaveImage = %v", k, img.Len(), err)
		}
		for seg := 0; seg < cfg.Segments; seg++ {
			d.Retire(seg)
		}
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
	// Object count, not bytes: a loaded segment's payloads are a region of
	// the image, read once, so the count follows frames (page array, a
	// share of the seen-map) plus the image and the header's constant,
	// never the 3072 pages.
	if mallocs := ms2.Mallocs - ms1.Mallocs; mallocs > 4*touched+512 {
		t.Fatalf("LoadImage made %d allocations for %d segment frames (one per page?)", mallocs, touched)
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

// checkNoGoroutineLeak fails t if more goroutines run than before.
// SaveImage and LoadImage wait for their workers on every path, but a
// joined goroutine can still be on its way out, so the count gets a moment
// to settle.
func checkNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > before; i++ {
		if i == 100 {
			t.Fatalf("%d goroutines running, %d before: the codec leaked a worker", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// appendFrame appends one well-formed frame, CRC included, to img.
func appendFrame(img []byte, typ byte, body []byte) []byte {
	w := codec.Writer{B: img}
	w.Frame(typ, body)
	return w.B
}

// craftedImage opens an image with the magic and a header frame for cfg,
// checksummed like a real one whatever cfg holds.
func craftedImage(t *testing.T, cfg Config) []byte {
	t.Helper()
	w := codec.Writer{B: []byte(imageMagic)}
	appendHeader(&w, cfg, Stats{}, nil)
	return w.B
}

// onePageImage is a well-sealed image of a device with cfg whose segment 0
// has page 0 programmed with a payload of dataLen zero bytes (and a zero
// fingerprint, which a load does not check).
func onePageImage(t *testing.T, cfg Config, dataLen int) []byte {
	return segmentImage(t, cfg, dataLen, 1, 0)
}

// segmentImage is a well-sealed image of a device with cfg whose segment 0
// records nextProg and carries the given pages, in the order given, each
// with a payload of dataLen zero bytes and a zero fingerprint.
func segmentImage(t *testing.T, cfg Config, dataLen, nextProg int, pages ...int) []byte {
	t.Helper()
	var seg codec.Writer
	seg.U32(0)                  // segment index
	seg.U32(uint32(nextProg))   // nextProg
	seg.U32(0)                  // erases
	seg.U8(byte(Healthy))       // health
	seg.U32(uint32(len(pages))) // programmed pages
	for _, pi := range pages {
		seg.U32(uint32(pi))
		seg.B = append(seg.B, make([]byte, OOBSize)...)
		seg.U64(0) // fingerprint
		seg.Bytes(make([]byte, dataLen))
	}
	var end codec.Writer
	end.U64(1)                  // segment frames
	end.U64(uint64(len(pages))) // programmed pages
	return appendFrame(appendFrame(craftedImage(t, cfg), codec.ImageSegment, seg.B), codec.ImageEnd, end.B)
}

// TestLoadImageRefusesPagesOutOfOrder: pages program in order, so a segment
// frame holds pages 0 to nextProg-1 and nothing else. A gap, pages out of
// order, or a nextProg other than the page count is refused as corrupt; the
// in-order frame loads, and every page of it reads back. A header that says
// its device programs out of order is refused too.
func TestLoadImageRefusesPagesOutOfOrder(t *testing.T) {
	cfg := testConfig()
	for _, tc := range []struct {
		name     string
		nextProg int
		pages    []int
	}{
		{"in order", 3, []int{0, 1, 2}},
		{"gap", 3, []int{0, 2}},
		{"gap, nextProg the page count", 2, []int{0, 2}},
		{"out of order", 2, []int{1, 0}},
		{"nextProg past the pages", 3, []int{0, 1}},
		{"nextProg short of the pages", 1, []int{0, 1}},
	} {
		for _, src := range imageSources(t) {
			d, err := src.load(segmentImage(t, cfg, cfg.SectorSize, tc.nextProg, tc.pages...))
			if tc.name == "in order" {
				if err != nil || d.NextFreeInSegment(0) != 3 {
					t.Fatalf("%s: %s: LoadImage error %v", src.name, tc.name, err)
				}
				for pi := range 3 {
					if data, _, _, err := d.ReadPage(0, d.Addr(0, pi)); err != nil || !bytes.Equal(data, make([]byte, cfg.SectorSize)) {
						t.Fatalf("%s: page %d of the loaded frame: %v", src.name, pi, err)
					}
				}
				continue
			}
			if !errors.Is(err, ErrImageCorrupt) || d != nil {
				t.Fatalf("%s: %s: LoadImage gave a device %v, error %v; want none and ErrImageCorrupt", src.name, tc.name, d != nil, err)
			}
		}
	}

	frames := splitFrames(t, onePageImage(t, cfg, cfg.SectorSize))
	hdr := slices.Clone(frames[0][codec.HeadLen : len(frames[0])-codec.TailLen])
	const inOrderFlag = 4 + 11*8 + 1 // version, eleven u64 fields, StoreData
	if hdr[inOrderFlag] != 1 {
		t.Fatalf("header byte %d is %d, want the in-order flag 1", inOrderFlag, hdr[inOrderFlag])
	}
	hdr[inOrderFlag] = 0
	img := appendFrame([]byte(imageMagic), codec.ImageHeader, hdr)
	for _, f := range frames[1:] {
		img = append(img, f...)
	}
	if d, err := LoadImage(bytes.NewReader(img)); !errors.Is(err, ErrImageCorrupt) || d != nil {
		t.Fatalf("a header saying pages program out of order: LoadImage gave a device %v, error %v", d != nil, err)
	}
}

// TestLoadImageRejectsImpossibleGeometry: a header whose geometry no image
// can carry is refused as corrupt before anything is sized from it. Each
// crafted image also holds one well-formed segment frame (segment 0, page 0
// programmed, no payload, as on a fingerprint-mode device) and a matching
// end frame, so a loader that trusts the header sizes a segment from it.
// The loads run in a child process: the unguarded PagesPerSegment case dies
// with a fatal out-of-memory that no recover catches, and the Segments and
// Channels ones panic inside New.
func TestLoadImageRejectsImpossibleGeometry(t *testing.T) {
	cases := map[string]func(*Config){
		"segments":          func(c *Config) { c.Segments = 1 << 50 },
		"channels":          func(c *Config) { c.Channels = 1 << 50 },
		"pages per segment": func(c *Config) { c.PagesPerSegment = 1 << 40 },
		"sector size":       func(c *Config) { c.SectorSize = 1 << 40 },
		"total pages":       func(c *Config) { c.Segments, c.PagesPerSegment = 1<<32, 1<<32 },
	}
	const env = "NAND_IMPOSSIBLE_GEOMETRY"
	if name := os.Getenv(env); name != "" {
		cfg := testConfig()
		cfg.StoreData = false
		cases[name](&cfg)
		if d, err := LoadImage(bytes.NewReader(onePageImage(t, cfg, 0))); !errors.Is(err, ErrImageCorrupt) || d != nil {
			t.Fatalf("%s: LoadImage = %v, %v; want no device and ErrImageCorrupt", name, d, err)
		}
		return
	}
	for name := range cases {
		cmd := exec.Command(os.Args[0], "-test.run=^TestLoadImageRejectsImpossibleGeometry$")
		cmd.Env = append(os.Environ(), env+"="+name)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Errorf("%s: child %v:\n%.600s", name, err, out)
		}
	}
}

// TestSaveImageRefusesUnloadableGeometry: the writer refuses a device whose
// geometry the loader would refuse, rather than write an image no load takes.
func TestSaveImageRefusesUnloadableGeometry(t *testing.T) {
	cfg := testConfig()
	cfg.SectorSize = maxFramePayload // one page's payload fills a whole frame
	var buf bytes.Buffer
	if err := New(cfg).SaveImage(&buf); err == nil {
		t.Fatalf("saved a %d-byte image of a device no image can carry", buf.Len())
	}
}

// TestLoadImageBoundsSegmentFrames: a segment frame's length is checked
// against the longest frame the header's geometry allows before a buffer is
// sized from it, so a corrupt length cannot allocate up to maxFramePayload.
func TestLoadImageBoundsSegmentFrames(t *testing.T) {
	img := craftedImage(t, testConfig())
	img = append(img, codec.ImageSegment)
	img = binary.LittleEndian.AppendUint32(img, maxFramePayload) // and no payload follows
	var ms1, ms2 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	d, err := LoadImage(bytes.NewReader(img))
	runtime.ReadMemStats(&ms2)
	if !errors.Is(err, ErrImageCorrupt) || d != nil {
		t.Fatalf("LoadImage = %v, %v; want no device and ErrImageCorrupt", d, err)
	}
	if alloc := ms2.TotalAlloc - ms1.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("a %d-byte image with a corrupt frame length made LoadImage allocate %d bytes", len(img), alloc)
	}
}

// TestLoadedPagesOwnTheirBuffers: a loaded segment's payloads are its frame
// in the image. Erasing and reprogramming a loaded segment, copying into
// and out of loaded pages and reprogramming a page rewrite that page's
// bytes and no others: the loaded device ends in the same state as the
// device it was saved from after the same operations, and a slice ReadPage
// returned before them for a page none of them writes is intact.
func TestLoadedPagesOwnTheirBuffers(t *testing.T) {
	cfg := testConfig()
	cfg.Segments = 6
	orig := New(cfg)
	version := byte(0)
	program := func(d *Device, seg, page int) {
		t.Helper()
		if _, err := d.ProgramPage(0, d.Addr(seg, page), fill(cfg.SectorSize, version), []byte{byte(seg), byte(page)}); err != nil {
			t.Fatal(err)
		}
	}
	for seg := 0; seg < cfg.Segments; seg++ {
		n := cfg.PagesPerSegment
		if seg == cfg.Segments-1 {
			n /= 2 // one segment left part-programmed
		}
		for p := 0; p < n; p++ {
			version++
			program(orig, seg, p)
		}
	}
	var buf bytes.Buffer
	if err := orig.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadImage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	var held, heldWas []byte // the loaded device's, once the loop is done
	last := cfg.Segments - 1
	for _, d := range []*Device{orig, loaded} {
		// Both devices read it, so their read counters stay equal.
		if held, _, _, err = d.ReadPage(0, d.Addr(3, 5)); err != nil {
			t.Fatal(err)
		}
		heldWas = append(heldWas[:0], held...)
		version = 0xA0
		// Erase and reprogram segment 1 whole; reprogram page 0 of segment 4.
		for _, seg := range []int{1, 4} {
			if _, err := d.EraseSegment(0, seg); err != nil {
				t.Fatal(err)
			}
		}
		for p := 0; p < cfg.PagesPerSegment; p++ {
			version++
			program(d, 1, p)
		}
		version++
		program(d, 4, 0)
		// Copy out of loaded pages into an erased loaded segment (the
		// destinations' windows are frame regions too) and into the tail
		// of the part-programmed one (past its frame, so its store moves
		// to a slab); then out of a page that was itself just copied.
		if _, err := d.EraseSegment(0, 2); err != nil {
			t.Fatal(err)
		}
		for i, c := range []struct{ from, to PageAddr }{
			{d.Addr(0, 3), d.Addr(2, 0)},
			{d.Addr(3, 7), d.Addr(2, 1)},
			{d.Addr(4, 0), d.Addr(last, cfg.PagesPerSegment/2)},
			{d.Addr(2, 0), d.Addr(2, 2)},
		} {
			if _, err := d.CopyPage(0, c.from, c.to); err != nil {
				t.Fatalf("copy %d: %v", i, err)
			}
		}
	}

	if !bytes.Equal(held, heldWas) {
		t.Fatal("a slice ReadPage returned changed under programs and copies into other pages")
	}
	for addr := PageAddr(0); int64(addr) < cfg.TotalPages(); addr++ {
		want, _, _, werr := orig.ReadPage(0, addr)
		got, _, _, gerr := loaded.ReadPage(0, addr)
		if (werr == nil) != (gerr == nil) || !bytes.Equal(got, want) {
			t.Fatalf("page %d: loaded device reads %x (%v), saved one %x (%v)", addr, got, gerr, want, werr)
		}
	}
	if loaded.StateDigest() != orig.StateDigest() {
		t.Fatal("loaded device diverged from the device it was saved from under the same operations")
	}
}

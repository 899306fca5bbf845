package nand

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// imageSource is one way LoadImage takes in an image.
type imageSource struct {
	name string
	load func(img []byte) (*Device, error)
}

// imageSources returns the two ways LoadImage takes in an image: read into
// memory from a bytes.Reader, and from a file, which it maps where it can.
// The file source rewrites one file in place for every load, which only
// loads that fail can follow: a failed load leaves no mapping behind, but
// a device would map a file changing under it.
func imageSources(t *testing.T) []imageSource {
	path := filepath.Join(t.TempDir(), "dev.img")
	return []imageSource{
		{"bytes", func(img []byte) (*Device, error) { return LoadImage(bytes.NewReader(img)) }},
		{"file", func(img []byte) (*Device, error) {
			if err := os.WriteFile(path, img, 0o644); err != nil {
				t.Fatal(err)
			}
			return loadFile(t, path)
		}},
	}
}

// imageFile writes img to a new file and returns its path.
func imageFile(t *testing.T, img []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "dev.img")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// loadFile loads the image at path through an *os.File.
func loadFile(t *testing.T, path string) (*Device, error) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	return LoadImage(f)
}

// saveImage returns d's image.
func saveImage(t *testing.T, d *Device) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// fullDevice programs every page of segments 0-4 and half of segment 5,
// each page with its own payload.
func fullDevice(t testing.TB) *Device {
	t.Helper()
	cfg := testConfig()
	cfg.Segments = 6
	d := New(cfg)
	for seg := 0; seg < cfg.Segments; seg++ {
		n := cfg.PagesPerSegment
		if seg == cfg.Segments-1 {
			n /= 2
		}
		for p := 0; p < n; p++ {
			if _, err := d.ProgramPage(0, d.Addr(seg, p), fill(cfg.SectorSize, byte(seg*n+p+1)), []byte{byte(seg), byte(p)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	return d
}

// rewriteLoaded writes into loaded pages through every write path the
// device has: it erases segments 1-3 and refills segment 1 page by page
// (ProgramPage), segment 2 in one batch (ProgramPages), and segment 3 with
// copies of segment 0's pages, one (CopyPage) and then the rest in one
// batch (CopyPages); then it programs segment 5's second half.
func rewriteLoaded(t *testing.T, d *Device, version byte) {
	t.Helper()
	cfg := d.Config()
	pps := cfg.PagesPerSegment
	for seg := 1; seg <= 3; seg++ {
		if _, err := d.EraseSegment(0, seg); err != nil {
			t.Fatal(err)
		}
	}
	var addrs []PageAddr
	var datas, oobs [][]byte
	for p := 0; p < pps; p++ {
		if _, err := d.ProgramPage(0, d.Addr(1, p), fill(cfg.SectorSize, version+byte(p)), []byte{version}); err != nil {
			t.Fatal(err)
		}
		addrs = append(addrs, d.Addr(2, p))
		datas = append(datas, fill(cfg.SectorSize, version^byte(p)))
		oobs = append(oobs, []byte{version, byte(p)})
	}
	if _, _, err := d.ProgramPages(0, addrs, datas, oobs); err != nil {
		t.Fatal(err)
	}
	if _, err := d.CopyPage(0, d.Addr(0, 0), d.Addr(3, 0)); err != nil {
		t.Fatal(err)
	}
	var froms, tos []PageAddr
	for p := 1; p < pps; p++ {
		froms, tos = append(froms, d.Addr(0, p)), append(tos, d.Addr(3, p))
	}
	if _, _, err := d.CopyPages(0, froms, tos); err != nil {
		t.Fatal(err)
	}
	for p := pps / 2; p < pps; p++ {
		if _, err := d.ProgramPage(0, d.Addr(5, p), fill(cfg.SectorSize, version), nil); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMappedLoadLeavesTheFileAlone: programs, erases, reprograms and copies
// into the pages of a device loaded from a file end in the state they give
// a device that was never imaged, and none of them reaches the file: its
// bytes are unchanged, and loading it again gives the device as it was
// before the writes.
func TestMappedLoadLeavesTheFileAlone(t *testing.T) {
	orig := fullDevice(t)
	img := saveImage(t, orig)
	path := imageFile(t, img)
	d, err := loadFile(t, path)
	if err != nil {
		t.Fatal(err)
	}
	before := d.StateDigest()
	if before != orig.StateDigest() {
		t.Fatal("the file load differs from the device it was saved from")
	}
	rewriteLoaded(t, orig, 0x80)
	rewriteLoaded(t, d, 0x80)
	if d.StateDigest() != orig.StateDigest() {
		t.Fatal("writes into the loaded device left it in another state than the same writes left its original")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, img) {
		t.Fatalf("writes through the loaded device changed the image file (err %v)", err)
	}
	again, err := loadFile(t, path)
	if err != nil {
		t.Fatal(err)
	}
	if again.StateDigest() != before {
		t.Fatal("a second load of the file does not give the device as it was loaded")
	}
}

// TestMappedLoadAdoptsItsFrames: a mapped load keeps each segment's
// payloads where the image holds them, so a page of a full segment and one
// of half-programmed segment 5 both read back windows into the mapping. The
// frame holds only the pages segment 5 had programmed: programming its next
// page moves its payloads into a store of its own, the bytes unchanged,
// while the full segments stay in the image.
func TestMappedLoadAdoptsItsFrames(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("images are mapped on Linux only")
	}
	orig := fullDevice(t)
	d, err := loadFile(t, imageFile(t, saveImage(t, orig)))
	if err != nil {
		t.Fatal(err)
	}
	if d.image == nil {
		t.Fatal("a file load is not mapped")
	}
	pps := d.Config().PagesPerSegment
	check := func(when string, seg, page int, inImage bool) {
		t.Helper()
		got, _, _, err := d.ReadPage(0, d.Addr(seg, page))
		if err != nil {
			t.Fatal(err)
		}
		want, _, _, _ := orig.ReadPage(0, orig.Addr(seg, page))
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: segment %d page %d reads back other bytes than were saved", when, seg, page)
		}
		img := d.image.b
		lo, at := uintptr(unsafe.Pointer(unsafe.SliceData(img))), uintptr(unsafe.Pointer(unsafe.SliceData(got)))
		if in := at >= lo && at+uintptr(len(got)) <= lo+uintptr(len(img)); in != inImage {
			t.Errorf("%s: segment %d page %d: payload inside the mapped image = %v, want %v", when, seg, page, in, inImage)
		}
	}
	for _, inHalf := range []bool{true, false} {
		when := "after the load"
		if !inHalf {
			when = "after a program into segment 5"
			next := fill(d.Config().SectorSize, 0xEE)
			for _, dev := range []*Device{orig, d} {
				if _, err := dev.ProgramPage(0, dev.Addr(5, pps/2), next, nil); err != nil {
					t.Fatal(err)
				}
			}
			check(when, 5, pps/2, false)
		}
		check(when, 0, 0, true)
		check(when, 4, pps-1, true)
		check(when, 5, 0, inHalf)
		check(when, 5, pps/2-1, inHalf)
	}
	if d.StateDigest() != orig.StateDigest() {
		t.Fatal("the loaded device and its original differ after the same program")
	}
}

// TestMappedLoadsAreIndependent: two loads of one file are two devices; a
// write through either shows in neither the other nor the file.
func TestMappedLoadsAreIndependent(t *testing.T) {
	img := saveImage(t, fullDevice(t))
	path := imageFile(t, img)
	a, err := loadFile(t, path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loadFile(t, path)
	if err != nil {
		t.Fatal(err)
	}
	held, _, _, err := b.ReadPage(0, b.Addr(1, 3))
	if err != nil {
		t.Fatal(err)
	}
	want := b.StateDigest() // after the read, which it counts
	heldWas := append([]byte(nil), held...)
	rewriteLoaded(t, a, 0x40)
	if b.StateDigest() != want || !bytes.Equal(held, heldWas) {
		t.Fatal("writes through one load of a file showed in the other")
	}
	written := a.StateDigest()
	rewriteLoaded(t, b, 0xC0)
	if a.StateDigest() != written {
		t.Fatal("writes through the second load of a file showed in the first")
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, img) {
		t.Fatalf("writes through two loads changed the image file (err %v)", err)
	}
}

// TestMappedImageGoesWithItsDevice: on Linux a file load maps the image
// until its device is unreachable and has been collected, and a load that
// fails unmaps it before it returns.
func TestMappedImageGoesWithItsDevice(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("images are mapped on Linux only")
	}
	img := saveImage(t, fullDevice(t))
	path := imageFile(t, img)
	mapped := func() bool {
		t.Helper()
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		return bytes.Contains(maps, []byte(path))
	}
	func() {
		d, err := loadFile(t, path)
		if err != nil {
			t.Fatal(err)
		}
		if !mapped() {
			t.Fatal("a loaded file is not mapped")
		}
		runtime.KeepAlive(d)
	}()
	for i := 0; mapped(); i++ {
		if i == 100 {
			t.Fatal("the image is still mapped after its device was collected")
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}

	img[len(img)-1] ^= 0x40 // the end frame's checksum
	path = imageFile(t, img)
	if d, err := loadFile(t, path); err == nil || d != nil {
		t.Fatalf("damaged image: LoadImage = %v, %v", d, err)
	}
	if mapped() {
		t.Fatal("a failed load left its image mapped")
	}
}

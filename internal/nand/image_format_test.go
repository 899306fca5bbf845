package nand

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// pinnedImageDevice is seededDevice plus a retired segment: every kind of
// segment frame the writer emits (partially programmed, full, erased after
// filling, suspect, retired) and an anchor, in one image.
func pinnedImageDevice(t testing.TB, cfg Config, seed int64) *Device {
	d := seededDevice(t, cfg, seed)
	d.Retire(cfg.Segments - 1)
	return d
}

// TestImageBytesPinned pins the v5 encoding itself. StateDigest hashes device
// state, not bytes, so a codec change that still round-trips passes every
// other image test; these constants move only with a new format version,
// whose loader refuses the old one rather than reading it.
//
// The "many segments" row images a device with more touched segments than
// the codec keeps frames in flight, every frame kind among them, so frames
// staged out of order would show as moved bytes.
func TestImageBytesPinned(t *testing.T) {
	fp := testConfig()
	fp.StoreData = false
	for _, tc := range []struct {
		name      string
		cfg       Config
		minFrames int // touched segments the device must carry, every kind among them
		want      string
	}{
		{"data", testConfig(), 0, "6ff1159d3f7326d054009375e417a29fc7f27c8e545c1f2ff14e536d7796d4dd"},
		{"fingerprint", fp, 0, "f4ee1a9e7c7508bd4fc595c436e632aa4408cfe7abc0e0e3d8ebf451914268c5"},
		{"many segments", manySegmentsConfig(), 32, "6455b837186ce6588f6824db4f273026cc79b2ec3c2a30cadb3e63a0cb821a6e"},
	} {
		d := pinnedImageDevice(t, tc.cfg, 41)
		if kinds := segmentKinds(d); tc.minFrames > 0 && (kinds["touched"] < tc.minFrames || len(kinds) != 6) {
			t.Fatalf("%s: segment kinds %v: want every kind and at least %d touched", tc.name, kinds, tc.minFrames)
		}
		var buf bytes.Buffer
		if err := d.SaveImage(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != tc.want {
			t.Errorf("%s: image of %d bytes hashes to %s, pinned %s", tc.name, buf.Len(), got, tc.want)
		}
	}
}

// manySegmentsConfig is testConfig with 64 segments: a seeded device on it
// has more touched segments than the codec ever keeps frames in flight.
func manySegmentsConfig() Config {
	cfg := testConfig()
	cfg.Segments = 64
	return cfg
}

// segmentKinds counts d's touched segments and, among them, each kind of
// segment frame: partially programmed, full, erased after filling, suspect
// and retired. A kind that does not occur has no key.
func segmentKinds(d *Device) map[string]int {
	kinds := make(map[string]int)
	pps := d.Config().PagesPerSegment
	for seg := range d.segs {
		s := &d.segs[seg]
		if !s.touched() {
			continue
		}
		kinds["touched"]++
		switch {
		case s.nextProg == pps:
			kinds["full"]++
		case s.nextProg > 0:
			kinds["partial"]++
		case s.erases > 0:
			kinds["erased after fill"]++
		}
		switch s.health {
		case Suspect:
			kinds["suspect"]++
		case Retired:
			kinds["retired"]++
		}
	}
	return kinds
}

// FuzzLoadImage: whatever the bytes, LoadImage never panics and never hands
// back a device alongside an error; a device it accepts saves and reloads to
// the same state.
func FuzzLoadImage(f *testing.F) {
	small := testConfig()
	small.SectorSize = 64 // keeps seeds a few KB, so mutations stay cheap
	fp := small
	fp.StoreData = false
	for _, d := range []*Device{
		pinnedImageDevice(f, small, 1),
		pinnedImageDevice(f, fp, 2),
		seededDevice(f, small, 3),
		New(small),
		// Full segments and a half-programmed one, whose frames a load
		// adopts as their stores.
		fullDevice(f),
	} {
		var buf bytes.Buffer
		if err := d.SaveImage(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, img []byte) {
		d, err := LoadImage(bytes.NewReader(img))
		if err != nil {
			if d != nil {
				t.Fatalf("device returned alongside %v", err)
			}
			return
		}
		var buf bytes.Buffer
		if err := d.SaveImage(&buf); err != nil {
			t.Fatalf("saving an accepted image: %v", err)
		}
		d2, err := LoadImage(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("reloading an accepted image: %v", err)
		}
		if d2.StateDigest() != d.StateDigest() {
			t.Fatal("save/load round trip of an accepted image changed its state")
		}
	})
}

// BenchmarkImageSaveLoad prices the image codec on the daemon's shard
// shape, 64 segments of 1 MiB (larger than the CPU caches, as a shard is),
// every page programmed with a stored payload, at 4096- and 512-byte
// sectors. save encodes into a discard writer; load decodes from memory and
// load-file from a page-cached file, which LoadImage maps where it can.
// These report image bytes per second. reprogram-after-load erases and
// reprograms every segment of a device just loaded from the file or from
// memory, untimed load excluded: on a mapped device each first write into
// a page of the mapping is a copy-on-write fault, the cost the mapping
// moves from the mount to the first writes. It reports payload bytes per
// second and ns per page.
func BenchmarkImageSaveLoad(b *testing.B) {
	for _, sector := range []int{4096, 512} {
		cfg := DefaultConfig()
		cfg.SectorSize, cfg.PagesPerSegment, cfg.Segments = sector, (1<<20)/sector, 64
		cfg.StoreData = true
		d := New(cfg)
		payload := make([]byte, cfg.SectorSize)
		for addr := PageAddr(0); int64(addr) < cfg.TotalPages(); addr++ {
			payload[0], payload[1] = byte(addr), byte(addr>>8)
			if _, err := d.ProgramPage(0, addr, payload, payload[:8]); err != nil {
				b.Fatal(err)
			}
		}
		var img bytes.Buffer
		if err := d.SaveImage(&img); err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(b.TempDir(), "dev.img")
		if err := os.WriteFile(path, img.Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
		sources := []struct {
			name string
			load func() (*Device, error)
		}{
			{"load", func() (*Device, error) { return LoadImage(bytes.NewReader(img.Bytes())) }},
			{"load-file", func() (*Device, error) {
				f, err := os.Open(path)
				if err != nil {
					return nil, err
				}
				defer f.Close()
				return LoadImage(f)
			}},
		}
		b.Run(fmt.Sprintf("sector%d/save", sector), func(b *testing.B) {
			b.SetBytes(int64(img.Len()))
			for i := 0; i < b.N; i++ {
				if err := d.SaveImage(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
		for _, src := range sources {
			b.Run(fmt.Sprintf("sector%d/%s", sector, src.name), func(b *testing.B) {
				b.SetBytes(int64(img.Len()))
				for i := 0; i < b.N; i++ {
					if _, err := src.load(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		for _, src := range sources {
			b.Run(fmt.Sprintf("sector%d/reprogram-after-%s", sector, src.name), func(b *testing.B) {
				b.SetBytes(cfg.Capacity())
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					loaded, err := src.load()
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					for seg := 0; seg < cfg.Segments; seg++ {
						if _, err := loaded.EraseSegment(0, seg); err != nil {
							b.Fatal(err)
						}
						for p := 0; p < cfg.PagesPerSegment; p++ {
							if _, err := loaded.ProgramPage(0, loaded.Addr(seg, p), payload, payload[:8]); err != nil {
								b.Fatal(err)
							}
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*cfg.TotalPages()), "ns/page")
			})
		}
	}
}

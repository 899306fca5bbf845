package iosnap

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"iosnap/internal/codec"
	"iosnap/internal/sim"
	"iosnap/internal/xport"
)

// A transfer stream arrives from another host. ReceiveInto promises to
// validate all of it before the destination changes, so whatever the bytes
// say, the receiver either refuses them with the destination untouched or
// applies an image that then verifies.

// receiveSeeds exports a full image of one snapshot and the delta to a
// second one from the same source, and returns both streams with the full
// image's manifest (the delta's base). The delta changes, adds and trims
// sectors, so it carries chunks and more than one delete.
func receiveSeeds(tb testing.TB) (full, delta []byte, base *xport.Manifest) {
	tb.Helper()
	f, err := New(testConfig(), nil)
	if err != nil {
		tb.Fatal(err)
	}
	ss := f.SectorSize()
	now := sim.Time(0)
	for lba := int64(0); lba < 72; lba += 3 {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 1)); err != nil {
			tb.Fatal(err)
		}
	}
	s1, now, err := f.FrozenSnapshot(now)
	if err != nil {
		tb.Fatal(err)
	}
	if base, full, now, err = f.ExportSync(now, ExportOpts{Snapshot: s1.ID}); err != nil {
		tb.Fatal(err)
	}
	for _, lba := range []int64{6, 30, 100} {
		if now, err = f.Write(now, lba, sectorPattern(ss, lba, 2)); err != nil {
			tb.Fatal(err)
		}
	}
	for _, lba := range []int64{12, 45} {
		if now, err = f.Trim(now, lba, 1); err != nil {
			tb.Fatal(err)
		}
	}
	s2, now, err := f.FrozenSnapshot(now)
	if err != nil {
		tb.Fatal(err)
	}
	if _, delta, _, err = f.ExportSync(now, ExportOpts{Snapshot: s2.ID, Base: s1.ID, BaseManifestID: base.ID()}); err != nil {
		tb.Fatal(err)
	}
	return full, delta, base
}

// openFrame reads the codec frame at the front of b leniently — a length
// past the end is clamped, the checksum is ignored — and returns its type,
// a copy of its payload and the bytes after it.
func openFrame(b []byte) (typ byte, payload, rest []byte) {
	if len(b) > 0 {
		typ = b[0]
	}
	if len(b) < codec.HeadLen {
		return typ, nil, nil
	}
	n := min(uint64(binary.LittleEndian.Uint32(b[1:])), uint64(len(b)-codec.HeadLen))
	payload = append([]byte(nil), b[codec.HeadLen:codec.HeadLen+n]...)
	return typ, payload, b[min(uint64(len(b)), codec.HeadLen+n+codec.TailLen):]
}

// resealStream turns arbitrary bytes into a stream whose frames are all
// well formed: each gets a length that fits and its checksum, and every
// chunk and end frame is re-tagged with the ID of the manifest before it.
// Frame types and every payload byte stay the fuzzer's, so its mutations
// reach the decoders and the receiver instead of dying at a checksum.
func resealStream(data []byte) []byte {
	var out codec.Writer
	var id uint64
	for len(data) > 0 {
		var typ byte
		var payload []byte
		typ, payload, data = openFrame(data)
		switch typ {
		case xport.FrameManifest:
			var m codec.Writer
			m.Frame(typ, payload)
			if m, err := xport.DecodeManifest(m.B); err == nil {
				id = m.ID()
			}
		case xport.FrameChunk, xport.FrameEnd:
			if len(payload) >= 8 {
				binary.LittleEndian.PutUint64(payload, id)
			}
		}
		out.Frame(typ, payload)
	}
	return out.B
}

// rewriteDelta re-encodes a delta stream after mut changed its manifest,
// with the same chunks: the stream is well formed, and whatever mut did is
// the only thing wrong with it.
func rewriteDelta(tb testing.TB, delta []byte, mut func(*xport.Manifest)) []byte {
	tb.Helper()
	s := xport.NewScanner(delta)
	first, err := s.Next()
	if err != nil {
		tb.Fatal(err)
	}
	m := *first.Manifest
	m.Deletes = append([]uint64(nil), m.Deletes...)
	mut(&m)
	w := xport.NewStreamWriter(&m)
	for s.More() {
		fr, err := s.Next()
		if err != nil {
			tb.Fatal(err)
		}
		if fr.Type == xport.FrameChunk {
			w.AddChunk(fr.LBA, fr.Data)
		}
	}
	return w.Close()
}

// imageDigest hashes every sector the destination reads back: a trim
// changes what the device holds without programming a page.
func imageDigest(t *testing.T, f *FTL) uint64 {
	t.Helper()
	h := fnv.New64a()
	buf := make([]byte, f.SectorSize())
	for lba := int64(0); lba < f.Sectors(); lba++ {
		if _, err := f.Read(0, lba, buf); err != nil {
			t.Fatalf("read lba %d: %v", lba, err)
		}
		h.Write(buf)
	}
	return h.Sum64()
}

// hostileManifestStream is a stream whose one frame holds a manifest that
// claims 16 bytes of writes for every byte it carries.
func hostileManifestStream(size int) []byte {
	body := make([]byte, size)
	binary.LittleEndian.PutUint32(body[24:], 512)          // SectorSize
	binary.LittleEndian.PutUint64(body[28:], 64)           // Sectors
	binary.LittleEndian.PutUint32(body[36:], uint32(size)) // writes claimed
	var w codec.Writer
	w.Frame(xport.FrameManifest, body)
	return w.B
}

func FuzzReceiveStream(f *testing.F) {
	full, delta, base := receiveSeeds(f)
	for _, s := range [][]byte{full, delta} {
		f.Add(s)
		f.Add(s[:len(s)/2])
		f.Add(s[:len(s)-3])
		for _, at := range []int{20, len(s) / 2, len(s) - 20} {
			flipped := append([]byte(nil), s...)
			flipped[at] ^= 0x08
			f.Add(flipped)
		}
	}
	f.Add(hostileManifestStream(64 << 10))
	// A delta that deletes a sector it also writes, and one whose second
	// delete lies past the end of the image: both used to get past
	// validation, the first to an applied image that failed verification.
	f.Add(rewriteDelta(f, delta, func(m *xport.Manifest) { m.Deletes = []uint64{12, 45, m.Writes[len(m.Writes)-1].LBA} }))
	f.Add(rewriteDelta(f, delta, func(m *xport.Manifest) { m.Deletes[1] = 1 << 40 }))
	f.Fuzz(func(t *testing.T, data []byte) {
		dst, err := New(testConfig(), nil)
		if err != nil {
			t.Fatal(err)
		}
		_, now, err := ReceiveInto(dst, 0, full, nil)
		if err != nil {
			t.Fatal(err)
		}
		before, image := deviceDigest(t, dst.Device()), imageDigest(t, dst)
		rec, now, err := ReceiveInto(dst, now, resealStream(data), base)
		if err != nil {
			if after := deviceDigest(t, dst.Device()); after != before {
				t.Fatalf("refused stream (%v) changed the destination: %s", err, firstDigestDiff(before, after))
			}
			if imageDigest(t, dst) != image {
				t.Fatalf("refused stream (%v) changed what the destination reads", err)
			}
			return
		}
		mism, _, err := VerifyReplica(dst, now, rec.Manifest)
		if err != nil || len(mism) != 0 {
			t.Fatalf("accepted stream does not verify: mismatches %v, err %v", mism, err)
		}
	})
}

// TestReceiveSeedStreamsPinned: the seed streams are real exports, and the
// transport's bytes are a wire format — the export of a fixed history
// encodes to the same bytes until the format changes by design, and a
// receiver refuses the old format rather than reading it.
func TestReceiveSeedStreamsPinned(t *testing.T) {
	full, delta, _ := receiveSeeds(t)
	for _, tc := range []struct {
		name string
		b    []byte
		n    int
		sum  uint64
	}{
		{"full", full, 13446, 0x619ef4faf185bf02},
		{"delta", delta, 1765, 0xee6a63e9eea5e74c},
	} {
		if len(tc.b) != tc.n || xport.HashChunk(tc.b) != tc.sum {
			t.Errorf("%s stream: %d bytes, FNV-64a %#x; pinned %d bytes, %#x", tc.name, len(tc.b), xport.HashChunk(tc.b), tc.n, tc.sum)
		}
	}
}

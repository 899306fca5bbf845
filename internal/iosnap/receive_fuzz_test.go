package iosnap

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

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

// The xport envelope: [4-byte magic][tag][u32 n][n-byte body][FNV-64a of
// everything before].
const envHead, envTail = 9, 8

// sealEnv appends body to dst in an envelope with a correct length and
// checksum.
func sealEnv(dst []byte, magic string, tag byte, body []byte) []byte {
	start := len(dst)
	dst = append(dst, magic...)
	dst = append(dst, tag)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(body)))
	dst = append(dst, body...)
	h := fnv.New64a()
	h.Write(dst[start:])
	return binary.LittleEndian.AppendUint64(dst, h.Sum64())
}

// openEnv reads the envelope at the front of b leniently — a length past
// the end is clamped, magic and checksum are ignored — and returns its tag,
// a copy of its body and the bytes after it.
func openEnv(b []byte) (tag byte, body, rest []byte) {
	if len(b) > 4 {
		tag = b[4]
	}
	if len(b) < envHead {
		return tag, nil, nil
	}
	n := min(uint64(binary.LittleEndian.Uint32(b[5:])), uint64(len(b)-envHead))
	body = append([]byte(nil), b[envHead:envHead+n]...)
	return tag, body, b[min(uint64(len(b)), envHead+n+envTail):]
}

// resealStream turns arbitrary bytes into a stream whose envelopes are all
// well formed: each frame, and the manifest inside a manifest frame, gets
// its magic, a length that fits and its checksum, and every chunk and end
// frame is re-tagged with the ID of the manifest before it. Frame types,
// manifest versions and every body byte stay the fuzzer's, so its mutations
// reach the decoders and the receiver instead of dying at a checksum.
func resealStream(data []byte) []byte {
	var out []byte
	var id uint64
	for len(data) > 0 {
		var typ byte
		var body []byte
		typ, body, data = openEnv(data)
		switch typ {
		case xport.FrameManifest:
			ver, mbody, _ := openEnv(body)
			body = sealEnv(nil, "iXmf", ver, mbody)
			if m, err := xport.DecodeManifest(body); err == nil {
				id = m.ID()
			}
		case xport.FrameChunk, xport.FrameEnd:
			if len(body) >= 8 {
				binary.LittleEndian.PutUint64(body, id)
			}
		}
		out = sealEnv(out, "iXfr", typ, body)
	}
	return out
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
	return sealEnv(nil, "iXfr", xport.FrameManifest, sealEnv(nil, "iXmf", 1, body))
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
		_, now, err := ReceiveInto(dst, 0, full, ReceiveOpts{})
		if err != nil {
			t.Fatal(err)
		}
		before, image := deviceDigest(t, dst.Device()), imageDigest(t, dst)
		rec, now, err := ReceiveInto(dst, now, resealStream(data), ReceiveOpts{Base: base})
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
// transport's bytes are a wire format — the export of a fixed history must
// encode to the same bytes release after release.
func TestReceiveSeedStreamsPinned(t *testing.T) {
	full, delta, _ := receiveSeeds(t)
	for _, tc := range []struct {
		name string
		b    []byte
		n    int
		sum  uint64
	}{
		{"full", full, 13671, 0x51acb82efeb980d},
		{"delta", delta, 1822, 0xf9b5ba8613e8c609},
	} {
		if len(tc.b) != tc.n || xport.HashChunk(tc.b) != tc.sum {
			t.Errorf("%s stream: %d bytes, FNV-64a %#x; pinned %d bytes, %#x", tc.name, len(tc.b), xport.HashChunk(tc.b), tc.n, tc.sum)
		}
	}
}

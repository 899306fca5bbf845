package iosnap

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"testing"

	"iosnap/internal/ckpt"
	"iosnap/internal/header"
	"iosnap/internal/logcore"
	"iosnap/internal/sim"
)

// Checkpoint chunks come back from an image file at Recover, i.e. from
// outside the program, wrapped in a checksum anyone can compute. The decoders
// must treat every count in them as a claim: never panic, never size an
// allocation from a number the stream has not paid for.

// decodeAnySection runs every section decoder the recovery path has over one
// section body; the alias section is decoded behind an empty tree section,
// the only place it is read.
func decodeAnySection(kind uint8, data []byte) {
	secs := []ckpt.Section{{Kind: kind, Data: data}}
	decodeCkptMapStream(secs)
	decodeCkptTree(secs)
	decodeCkptTree(append([]ckpt.Section{emptyTreeSection}, secs...))
	decodeCkptValid(secs, 64)
}

// emptyTreeSection is a tree section with no snapshots and no segments.
var emptyTreeSection = ckpt.Section{Kind: ckptSecTree, Data: make([]byte, 8+8+4+4)}

// seal turns arbitrary bytes into a stream ckpt.Decode accepts as framed:
// magic, version, total length and checksum are made right, everything else
// (identity, section count, section frames) stays the fuzzer's.
func seal(body []byte) []byte {
	b := append([]byte(nil), body...)
	for len(b) < 29 {
		b = append(b, 0)
	}
	copy(b, "iCkp\x01")
	binary.LittleEndian.PutUint32(b[21:], uint32(len(b)+8))
	h := fnv.New64a()
	h.Write(b)
	return binary.LittleEndian.AppendUint64(b, h.Sum64())
}

// checkpointSeeds returns, for a tree map and a bounded paged map, the
// sealed streams of one real checkpoint and every section body in them.
func checkpointSeeds(t testing.TB) (streams [][]byte, secs []ckpt.Section) {
	for _, pages := range []int{0, 2} {
		cfg := testConfig()
		cfg.BitmapPageBits = 64
		cfg.MapCachePages = pages
		f, err := New(cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		now := sim.Time(0)
		for i := int64(0); i < 120; i++ {
			lba := (i * 7) % 90
			if now, err = f.Write(now, lba, sectorPattern(f.SectorSize(), lba, byte(i))); err != nil {
				t.Fatal(err)
			}
			if i%40 == 39 {
				if _, now, err = f.CreateSnapshot(now); err != nil {
					t.Fatal(err)
				}
			}
		}
		if now, err = f.Close(now); err != nil {
			t.Fatal(err)
		}
		chunks, _, ok := f.ReadAnchorChunks(now)
		if !ok {
			t.Fatal("closed device has no readable checkpoint")
		}
		byType := make(map[header.Type][]logcore.AnchorChunk)
		for _, c := range chunks {
			byType[c.Type] = append(byType[c.Type], c)
		}
		for _, group := range byType {
			var payloads [][]byte
			for _, c := range group {
				payloads = append(payloads, c.Payload)
			}
			stream, err := ckpt.Join(f.AnchorID, payloads)
			if err != nil {
				t.Fatal(err)
			}
			_, _, ss, err := ckpt.Decode(stream)
			if err != nil {
				t.Fatal(err)
			}
			streams = append(streams, stream)
			secs = append(secs, ss...)
		}
	}
	return streams, secs
}

// hostileCount is a map section claiming 2^62 entries in 8 bytes.
var hostileCount = binary.LittleEndian.AppendUint64(nil, 1<<62)

func FuzzCheckpointSections(f *testing.F) {
	streams, secs := checkpointSeeds(f)
	for _, s := range streams {
		f.Add(uint8(0), s)
	}
	for _, s := range secs {
		f.Add(s.Kind, s.Data)
	}
	for kind := uint8(ckptSecMap); kind <= ckptSecAlias; kind++ {
		f.Add(kind, hostileCount)
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if kind == 0 {
			// A whole stream: through the chunk codec, then every decoder
			// over whatever sections it frames.
			chunks, err := ckpt.Split(7, seal(data), 512)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := ckpt.Join(7, chunks)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, secs, err := ckpt.Decode(stream); err == nil {
				for _, s := range secs {
					decodeAnySection(s.Kind, s.Data)
				}
			}
		} else {
			decodeAnySection(kind, data)
		}
		runtime.ReadMemStats(&after)
		// Decoded records are a little wider than their encodings and a
		// stream is copied a few times on its way through the codec; 64×
		// plus slack is far above that and far below any trusted count.
		if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(64*len(data)+1<<16); got > limit {
			t.Fatalf("decoding %d bytes of kind %d allocated %d bytes (limit %d)", len(data), kind, got, limit)
		}
	})
}

// TestCheckpointSectionCountsAreBounded is the reported case, outside the
// fuzzer: a checksum-valid checkpoint whose map section claims 2^62 entries
// used to panic in makeslice (and 2^33 would have asked for 128 GiB).
func TestCheckpointSectionCountsAreBounded(t *testing.T) {
	for kind := uint8(ckptSecMap); kind <= ckptSecAlias; kind++ {
		stream := ckpt.Encode(9, 9, []ckpt.Section{{Kind: kind, Data: hostileCount}})
		_, _, secs, err := ckpt.Decode(stream)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := decodeCkptMapStream(secs); err == nil && (kind == ckptSecMap || kind == ckptSecGTD) {
			t.Fatalf("kind %d: a map section claiming 2^62 entries decoded", kind)
		}
		if _, err := decodeCkptTree(secs); err == nil {
			t.Fatalf("kind %d: tree decoder accepted a hostile section", kind)
		}
		if _, err := decodeCkptValid(secs, 64); err == nil {
			t.Fatalf("kind %d: validity decoder accepted a hostile section", kind)
		}
	}
	// The alias section's count, behind a valid tree section.
	alias := ckpt.Section{Kind: ckptSecAlias, Data: binary.LittleEndian.AppendUint32(make([]byte, 8), 1<<32-1)}
	if _, err := decodeCkptTree([]ckpt.Section{emptyTreeSection, alias}); err == nil {
		t.Fatal("an alias section claiming 2^32-1 entries in 12 bytes decoded")
	}
	// The chunk codec's own count: a sealed stream claiming 2^32-1 sections.
	body := make([]byte, 29)
	binary.LittleEndian.PutUint32(body[25:], 1<<32-1)
	if _, _, _, err := ckpt.Decode(seal(body)); err == nil {
		t.Fatal("a stream claiming 2^32-1 sections in 37 bytes decoded")
	}
}

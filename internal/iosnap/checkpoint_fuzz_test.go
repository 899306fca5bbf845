package iosnap

import (
	"encoding/binary"
	"runtime"
	"testing"

	"iosnap/internal/codec"
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
func decodeAnySection(kind byte, data []byte) {
	secs := []logcore.Section{{Kind: kind, Data: data}}
	decodeCkptMap(secs)
	decodeCkptTree(secs)
	decodeCkptTree(append([]logcore.Section{emptyTreeSection}, secs...))
	decodeCkptValid(secs, 64)
}

// emptyTreeSection is a tree section with no snapshots and no segments.
var emptyTreeSection = logcore.Section{Kind: ckptSecTree, Data: make([]byte, 8+8+4+4)}

// sectionsOf cuts arbitrary bytes into sections — a kind byte, a u32
// length, then up to that many bytes — so the fuzzer controls every
// section of a stream while the codec's checksums hold. recordsOf is the
// inverse, for seeds.
func sectionsOf(data []byte) []logcore.Section {
	var secs []logcore.Section
	for len(data) >= 5 {
		n := min(int(binary.LittleEndian.Uint32(data[1:])), len(data)-5)
		secs = append(secs, logcore.Section{Kind: data[0], Data: data[5 : 5+n]})
		data = data[5+n:]
	}
	return secs
}

func recordsOf(secs []logcore.Section) []byte {
	var b []byte
	for _, s := range secs {
		b = append(b, s.Kind)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(s.Data)))
		b = append(b, s.Data...)
	}
	return b
}

// checkpointSeeds returns, for a tree map and a bounded paged map, the
// sections of one real checkpoint.
func checkpointSeeds(t testing.TB) (streams [][]logcore.Section) {
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
		secs, ok := logcore.AssembleStream(f.AnchorID, chunks)
		if !ok {
			t.Fatal("anchored stream does not assemble")
		}
		streams = append(streams, secs)
	}
	return streams
}

// hostileCount is a map section claiming 2^62 entries in 8 bytes.
var hostileCount = binary.LittleEndian.AppendUint64(nil, 1<<62)

func FuzzCheckpointSections(f *testing.F) {
	streams := checkpointSeeds(f)
	for _, secs := range streams {
		f.Add(uint8(0), recordsOf(secs))
		for _, s := range secs {
			f.Add(s.Kind, s.Data)
		}
		// The three streams a generation was once split into — map; tree
		// and alias; validity — are streams with sections missing.
		for _, part := range [][]logcore.Section{secs[:1], secs[1:3], secs[3:]} {
			f.Add(uint8(0), recordsOf(part))
		}
	}
	for kind := ckptSecMap; kind <= ckptSecValid; kind++ {
		f.Add(kind, hostileCount)
	}
	ftl, err := New(testConfig(), nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, kind uint8, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if kind == 0 {
			// A whole stream: through the chunk codec, then every decoder
			// over whatever sections it frames.
			chunks, err := ftl.StreamJobs(7, sectionsOf(data))
			if err != nil {
				t.Fatal(err)
			}
			group := make([]logcore.AnchorChunk, len(chunks))
			for i, c := range chunks {
				group[i] = logcore.AnchorChunk{Idx: uint64(i), Total: uint64(len(chunks)), Payload: c}
			}
			secs, ok := logcore.AssembleStream(7, group)
			if !ok {
				t.Fatal("a framed stream does not assemble")
			}
			for _, s := range secs {
				decodeAnySection(s.Kind, s.Data)
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
	for kind := ckptSecMap; kind <= ckptSecValid; kind++ {
		secs := []logcore.Section{{Kind: kind, Data: hostileCount}}
		if _, _, _, err := decodeCkptMap(secs); err == nil && (kind == ckptSecMap || kind == ckptSecGTD) {
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
	alias := logcore.Section{Kind: ckptSecAlias, Data: binary.LittleEndian.AppendUint32(make([]byte, 8), 1<<32-1)}
	if _, err := decodeCkptTree([]logcore.Section{emptyTreeSection, alias}); err == nil {
		t.Fatal("an alias section claiming 2^32-1 entries in 12 bytes decoded")
	}
	// The stream's own count: a one-chunk stream of generation 9 claiming
	// 2^32-1 sections.
	var w codec.Writer
	w.U64(9) // the chunk's generation prefix
	g := w.Begin(codec.CkptGeneration)
	w.U64(9)
	w.U32(1<<32 - 1)
	w.End(g)
	chunk := append(w.B, make([]byte, 64)...)
	if _, ok := logcore.AssembleStream(9, []logcore.AnchorChunk{{Total: 1, Payload: chunk}}); ok {
		t.Fatal("a stream claiming 2^32-1 sections in one chunk assembled")
	}
}

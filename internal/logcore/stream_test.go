package logcore

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"

	"iosnap/internal/codec"
)

// The checkpoint stream codec below StreamJobs: a generation frame and
// one frame per section, split into ID-prefixed chunks and joined back.

func roundTrip(t *testing.T, id uint64, secs []Section, sectorSize int) []Section {
	t.Helper()
	chunks, err := split(id, encodeStream(id, secs), sectorSize)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	for _, c := range chunks {
		if len(c) != sectorSize {
			t.Fatalf("chunk size %d, want %d", len(c), sectorSize)
		}
		if got := binary.LittleEndian.Uint64(c); got != id {
			t.Fatalf("chunk prefix = %d, want %d", got, id)
		}
	}
	joined, err := join(id, chunks)
	if err != nil {
		t.Fatalf("join: %v", err)
	}
	got, err := decodeStream(id, joined)
	if err != nil {
		t.Fatalf("decodeStream: %v", err)
	}
	return got
}

func TestStreamRoundTrip(t *testing.T) {
	secs := []Section{
		{Kind: codec.CkptMap, Data: []byte("forward map payload")},
		{Kind: codec.CkptTree, Data: nil},
		{Kind: codec.CkptValid, Data: bytes.Repeat([]byte{0xAB}, 1000)},
	}
	if got := roundTrip(t, 42, secs, 128); !sectionsEqual(got, secs) {
		t.Fatalf("got %d sections, not the %d written", len(got), len(secs))
	}
}

func TestStreamWithNoSections(t *testing.T) {
	if got := roundTrip(t, 7, nil, 64); len(got) != 0 {
		t.Fatalf("got %d sections, want 0", len(got))
	}
}

// TestStreamCorruptionDetected: a flipped byte anywhere in the frames, a
// stream cut short, a stream of another generation and a section count the
// stream cannot hold are all refused; zero padding after the last frame is
// not read.
func TestStreamCorruptionDetected(t *testing.T) {
	stream := encodeStream(9, []Section{{Kind: codec.CkptMap, Data: bytes.Repeat([]byte{7}, 300)}})
	for pos := range stream {
		bad := bytes.Clone(stream)
		bad[pos] ^= 0xFF
		if _, err := decodeStream(9, bad); err == nil {
			t.Fatalf("decodeStream accepted corruption at byte %d", pos)
		}
	}
	if _, err := decodeStream(9, stream[:len(stream)-3]); err == nil {
		t.Fatal("decodeStream accepted a truncated stream")
	}
	if _, err := decodeStream(10, stream); err == nil {
		t.Fatal("decodeStream accepted a stream of another generation")
	}
	if _, err := decodeStream(9, append(bytes.Clone(stream), make([]byte, 100)...)); err != nil {
		t.Fatalf("zero padding after the last frame: %v", err)
	}
	var w codec.Writer
	g := w.Begin(codec.CkptGeneration)
	w.U64(9)
	w.U32(1<<32 - 1)
	w.End(g)
	if _, err := decodeStream(9, append(w.B, make([]byte, 64)...)); !errors.Is(err, codec.ErrTruncated) {
		t.Fatalf("a stream claiming 2^32-1 sections in 64 bytes: %v, want ErrTruncated", err)
	}
}

func TestJoinRejectsForeignChunk(t *testing.T) {
	chunks, err := split(1, encodeStream(1, []Section{{Kind: codec.CkptMap, Data: bytes.Repeat([]byte{3}, 200)}}), 64)
	if err != nil {
		t.Fatal(err)
	}
	other, err := split(2, encodeStream(2, nil), 64)
	if err != nil {
		t.Fatal(err)
	}
	chunks[1] = other[0]
	if _, err := join(1, chunks); !errors.Is(err, errBadChunk) {
		t.Fatalf("join = %v, want errBadChunk", err)
	}
}

// TestJoinAllocatesOnce: join's output is what appending every chunk's
// payload yields, for chunk sets of any count and sizes, in one allocation.
func TestJoinAllocatesOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		id := rng.Uint64()
		chunks := make([][]byte, 1+rng.Intn(40))
		var want []byte
		for i := range chunks {
			c := binary.LittleEndian.AppendUint64(nil, id)
			for n := 1 + rng.Intn(600); n > 0; n-- {
				c = append(c, byte(rng.Intn(256)))
			}
			chunks[i] = c
			want = append(want, c[chunkPrefix:]...)
		}
		got, err := join(id, chunks)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("trial %d: join of %d chunks differs from their appended payloads (%v)", trial, len(chunks), err)
		}
		if allocs := testing.AllocsPerRun(10, func() { join(id, chunks) }); allocs != 1 {
			t.Fatalf("trial %d: join of %d chunks allocated %.0f times, want 1", trial, len(chunks), allocs)
		}
	}
	if _, err := join(1, nil); !errors.Is(err, codec.ErrTruncated) {
		t.Fatalf("join of no chunks = %v, want ErrTruncated", err)
	}
}

func TestSplitTinySector(t *testing.T) {
	if _, err := split(1, []byte{1}, chunkPrefix); err == nil {
		t.Fatal("split accepted a sector with no payload room")
	}
}

package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
)

func roundTrip(t *testing.T, id, seq uint64, secs []Section, sectorSize int) []Section {
	t.Helper()
	stream := Encode(id, seq, secs)
	chunks, err := Split(id, stream, sectorSize)
	if err != nil {
		t.Fatalf("Split: %v", err)
	}
	for _, c := range chunks {
		if len(c) != sectorSize {
			t.Fatalf("chunk size %d, want %d", len(c), sectorSize)
		}
		if got := binary.LittleEndian.Uint64(c); got != id {
			t.Fatalf("chunk prefix = %d, want %d", got, id)
		}
	}
	joined, err := Join(id, chunks)
	if err != nil {
		t.Fatalf("Join: %v", err)
	}
	gotID, gotSeq, got, err := Decode(joined)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if gotID != id || gotSeq != seq {
		t.Fatalf("Decode identity = (%d,%d), want (%d,%d)", gotID, gotSeq, id, seq)
	}
	return got
}

func TestRoundTrip(t *testing.T) {
	secs := []Section{
		{Kind: 1, Data: []byte("forward map payload")},
		{Kind: 2, Data: nil},
		{Kind: 3, Data: bytes.Repeat([]byte{0xAB}, 1000)},
	}
	got := roundTrip(t, 42, 1234, secs, 128)
	if len(got) != len(secs) {
		t.Fatalf("got %d sections, want %d", len(got), len(secs))
	}
	for i, s := range secs {
		if got[i].Kind != s.Kind || !bytes.Equal(got[i].Data, s.Data) {
			t.Fatalf("section %d mismatch", i)
		}
	}
}

func TestEmptySections(t *testing.T) {
	if got := roundTrip(t, 7, 0, nil, 64); len(got) != 0 {
		t.Fatalf("got %d sections, want 0", len(got))
	}
}

func TestCorruptionDetected(t *testing.T) {
	stream := Encode(9, 9, []Section{{Kind: 5, Data: bytes.Repeat([]byte{7}, 300)}})
	for _, pos := range []int{0, 4, 10, headerLen + 3, len(stream) - 1} {
		bad := append([]byte(nil), stream...)
		bad[pos] ^= 0xFF
		if _, _, _, err := Decode(bad); err == nil {
			t.Fatalf("Decode accepted corruption at byte %d", pos)
		}
	}
	if _, _, _, err := Decode(stream[:len(stream)-3]); err == nil {
		t.Fatal("Decode accepted truncated stream")
	}
}

func TestJoinRejectsForeignChunk(t *testing.T) {
	stream := Encode(1, 1, []Section{{Kind: 1, Data: bytes.Repeat([]byte{3}, 200)}})
	chunks, err := Split(1, stream, 64)
	if err != nil {
		t.Fatal(err)
	}
	other, err := Split(2, Encode(2, 2, nil), 64)
	if err != nil {
		t.Fatal(err)
	}
	chunks[1] = other[0]
	if _, err := Join(1, chunks); !errors.Is(err, ErrBadChunk) {
		t.Fatalf("Join = %v, want ErrBadChunk", err)
	}
}

// TestJoinAllocatesOnce: Join's output is what appending every chunk's
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
			want = append(want, c[ChunkPrefix:]...)
		}
		got, err := Join(id, chunks)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("trial %d: Join of %d chunks differs from their appended payloads (%v)", trial, len(chunks), err)
		}
		if allocs := testing.AllocsPerRun(10, func() { Join(id, chunks) }); allocs != 1 {
			t.Fatalf("trial %d: Join of %d chunks allocated %.0f times, want 1", trial, len(chunks), allocs)
		}
	}
	if _, err := Join(1, nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("Join of no chunks = %v, want ErrTruncated", err)
	}
}

// TestSealSingleIsEncode: framing a body in place gives Encode's bytes for
// the same one-section stream, DecodeSingle returns that section, and
// neither allocates. DecodeSingle refuses any other section count and a
// section that does not reach the checksum.
func TestSealSingleIsEncode(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 12, 300} {
		body := make([]byte, n)
		rng.Read(body)
		want := Encode(7, 99, []Section{{Kind: 4, Data: body}})
		b := make([]byte, len(want)+16)
		copy(b[SingleBody:], body)
		if got := SealSingle(b, 7, 99, 4, n); got != len(want) || !bytes.Equal(b[:got], want) {
			t.Fatalf("body %d: SealSingle wrote %x, Encode %x", n, b[:got], want)
		}
		id, seq, sec, err := DecodeSingle(b)
		if err != nil || id != 7 || seq != 99 || sec.Kind != 4 || !bytes.Equal(sec.Data, body) {
			t.Fatalf("body %d: DecodeSingle = (%d, %d, %d, %x, %v)", n, id, seq, sec.Kind, sec.Data, err)
		}
		if allocs := testing.AllocsPerRun(10, func() {
			SealSingle(b, 7, 99, 4, n)
			DecodeSingle(b)
		}); allocs != 0 {
			t.Fatalf("body %d: seal + decode allocated %.0f times", n, allocs)
		}
	}
	for _, secs := range [][]Section{nil, {{Kind: 1}, {Kind: 2}}} {
		if _, _, _, err := DecodeSingle(Encode(1, 1, secs)); err == nil {
			t.Fatalf("DecodeSingle accepted %d sections", len(secs))
		}
	}
	// A section frame claiming less than the body holds.
	b := make([]byte, 64)
	n := SealSingle(b, 1, 1, 4, 8)
	binary.LittleEndian.PutUint32(b[SingleBody-4:], 4)
	binary.LittleEndian.PutUint64(b[n-checksumLen:], checksum(b[:n-checksumLen]))
	if _, _, _, err := DecodeSingle(b); !errors.Is(err, ErrTruncated) {
		t.Fatalf("DecodeSingle of a short section frame = %v, want ErrTruncated", err)
	}
}

func TestSplitTinySector(t *testing.T) {
	if _, err := Split(1, []byte{1}, ChunkPrefix); err == nil {
		t.Fatal("Split accepted sector with no payload room")
	}
}

func TestWriterReader(t *testing.T) {
	var w Writer
	w.U8(3)
	w.U32(0xDEADBEEF)
	w.U64(1 << 60)
	w.Bool(true)
	w.Bool(false)
	w.Bytes([]byte("hello"))

	r := Reader{B: w.B}
	if v := r.U8(); v != 3 {
		t.Fatalf("U8 = %d", v)
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Fatalf("U32 = %x", v)
	}
	if v := r.U64(); v != 1<<60 {
		t.Fatalf("U64 = %x", v)
	}
	if !r.Bool() || r.Bool() {
		t.Fatal("Bool mismatch")
	}
	if v := r.Bytes(); string(v) != "hello" {
		t.Fatalf("Bytes = %q", v)
	}
	if r.Err() != nil || r.Rest() != 0 {
		t.Fatalf("Err=%v Rest=%d", r.Err(), r.Rest())
	}
	// Reading past the end latches the sticky error.
	if r.U64(); r.Err() == nil {
		t.Fatal("overread not detected")
	}
}

// TestWriterU64sIsALoopOfU64: the bulk append writes the bytes a U64 per
// element writes, after whatever the buffer already holds, and an empty
// slice writes nothing.
func TestWriterU64sIsALoopOfU64(t *testing.T) {
	words := []uint64{0, 1, 1 << 63, 0xDEADBEEFCAFEF00D, ^uint64(0)}
	var bulk, loop Writer
	for _, w := range []*Writer{&bulk, &loop} {
		w.U8(9) // an odd offset: nothing may assume alignment
	}
	bulk.U64s(words)
	bulk.U64s(nil)
	bulk.U64s(words[:1])
	for _, v := range append(append([]uint64(nil), words...), words[0]) {
		loop.U64(v)
	}
	if !bytes.Equal(bulk.B, loop.B) {
		t.Fatalf("U64s wrote %x, a loop of U64 %x", bulk.B, loop.B)
	}
}

func TestReaderCountBoundsByRemainingBytes(t *testing.T) {
	var w Writer
	w.U32(3)
	for i := 0; i < 3; i++ {
		w.U64(uint64(i))
	}
	r := Reader{B: w.B}
	if n := r.Count(uint64(r.U32()), 8); n != 3 || r.Err() != nil {
		t.Fatalf("honest count: got %d, err %v", n, r.Err())
	}
	for _, claim := range []uint64{4, 1 << 32, 1 << 62} {
		r := Reader{B: w.B}
		r.U32()
		if n := r.Count(claim, 8); n != 0 || !errors.Is(r.Err(), ErrTruncated) {
			t.Fatalf("count %d over 24 bytes: got %d, err %v", claim, n, r.Err())
		}
	}
}

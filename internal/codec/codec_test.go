package codec

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// TestFrameLayout pins the frame to its documented bytes: type, length and
// payload little-endian, then the CRC32 (IEEE) of all three.
func TestFrameLayout(t *testing.T) {
	var w Writer
	w.Frame(7, []byte("abc"))
	want := []byte{7, 3, 0, 0, 0, 'a', 'b', 'c', 0x3d, 0x54, 0x6a, 0x94}
	if !bytes.Equal(w.B, want) {
		t.Fatalf("frame %x, want %x", w.B, want)
	}
}

// TestBeginEndIsFrame: sealing a payload appended in place gives the bytes
// Frame gives for it, Open returns the type and payload, and neither the
// seal into a buffer with room nor the open allocates.
func TestBeginEndIsFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 12, 300} {
		body := make([]byte, n)
		rng.Read(body)
		var want Writer
		want.Frame(4, body)
		buf := make([]byte, 0, len(want.B)+16)
		seal := func() []byte {
			w := Writer{B: buf}
			start := w.Begin(4)
			w.B = append(w.B, body...)
			w.End(start)
			return w.B
		}
		if got := seal(); !bytes.Equal(got, want.B) {
			t.Fatalf("body %d: Begin/End wrote %x, Frame %x", n, got, want.B)
		}
		typ, payload, size, err := Open(append(seal(), 0, 0, 0), MaxPayload)
		if err != nil || typ != 4 || size != len(want.B) || !bytes.Equal(payload, body) {
			t.Fatalf("body %d: Open = (%d, %x, %d, %v)", n, typ, payload, size, err)
		}
		if cap(payload) != len(payload) {
			t.Fatalf("body %d: payload capacity %d runs past its length %d", n, cap(payload), len(payload))
		}
		if allocs := testing.AllocsPerRun(10, func() {
			Open(seal(), MaxPayload)
		}); allocs != 0 {
			t.Fatalf("body %d: seal + open allocated %.0f times", n, allocs)
		}
	}
}

// TestOpenRefusesDamage: every flipped bit of a frame is a checksum
// mismatch or, in the length, a frame the input does not hold; every proper
// prefix is truncated; a payload over the caller's limit is too long.
func TestOpenRefusesDamage(t *testing.T) {
	var w Writer
	w.Frame(9, bytes.Repeat([]byte{7}, 300))
	for pos := range w.B {
		for bit := 0; bit < 8; bit++ {
			bad := bytes.Clone(w.B)
			bad[pos] ^= 1 << bit
			if _, _, _, err := Open(bad, MaxPayload); !errors.Is(err, ErrBadChecksum) && !errors.Is(err, ErrTruncated) {
				t.Fatalf("bit %d of byte %d flipped: Open = %v", bit, pos, err)
			}
		}
	}
	for n := 0; n < len(w.B); n++ {
		if _, _, _, err := Open(w.B[:n], MaxPayload); !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix of %d bytes: Open = %v, want ErrTruncated", n, err)
		}
	}
	if _, _, _, err := Open(w.B, 299); !errors.Is(err, ErrTooLong) {
		t.Fatalf("300-byte payload under a 299-byte limit: Open = %v, want ErrTooLong", err)
	}
	if _, _, _, err := Open(make([]byte, 64), MaxPayload); err == nil {
		t.Fatal("zero padding opened as a frame")
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
	w.B = append(w.B, "raw"...)

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
	if v := r.Bytes(); string(v) != "hello" || cap(v) != len(v) {
		t.Fatalf("Bytes = %q (capacity %d)", v, cap(v))
	}
	if v := r.Raw(3); string(v) != "raw" {
		t.Fatalf("Raw = %q", v)
	}
	if r.Err() != nil || r.Rest() != 0 {
		t.Fatalf("Err=%v Rest=%d", r.Err(), r.Rest())
	}
	// Reading past the end latches the sticky error.
	if r.U64(); !errors.Is(r.Err(), ErrTruncated) {
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

// FuzzDecodeFrame: whatever the bytes and the limit, Open yields a frame or
// an error and never panics; a frame it yields lies inside the input, its
// payload inside the limit, and sealing that type and payload again gives
// the bytes it was opened from. The other way round, any type and payload
// sealed opens to themselves.
func FuzzDecodeFrame(f *testing.F) {
	var w Writer
	w.Frame(ImageHeader, []byte("header"))
	w.Frame(MapPage, nil)
	f.Add(w.B, ^uint32(0), byte(StreamEnd))
	f.Add(w.B[:7], uint32(3), byte(0))
	f.Add([]byte{Chunk, 0xff, 0xff, 0xff, 0xff}, ^uint32(0), byte(Chunk))
	f.Fuzz(func(t *testing.T, b []byte, limit uint32, typ byte) {
		got, payload, n, err := Open(b, int(limit))
		if err == nil {
			if n > len(b) || len(payload) > int(limit) || len(payload) != n-Overhead || cap(payload) != len(payload) {
				t.Fatalf("frame of %d bytes, payload %d, from %d bytes under limit %d", n, len(payload), len(b), limit)
			}
			var again Writer
			again.Frame(got, payload)
			if !bytes.Equal(again.B, b[:n]) {
				t.Fatalf("re-sealed frame %x, opened from %x", again.B, b[:n])
			}
		} else if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrTooLong) && !errors.Is(err, ErrBadChecksum) {
			t.Fatalf("Open = %v", err)
		}
		var sealed Writer
		sealed.Frame(typ, b)
		got, payload, n, err = Open(sealed.B, len(b))
		if err != nil || got != typ || n != len(sealed.B) || !bytes.Equal(payload, b) {
			t.Fatalf("sealed %d-byte payload of type %d opens as (%d, %d bytes, %d, %v)", len(b), typ, got, len(payload), n, err)
		}
	})
}

package xport

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"iosnap/internal/codec"
)

func testManifest() *Manifest {
	chunk := func(b byte) []byte {
		d := make([]byte, 64)
		for i := range d {
			d[i] = b
		}
		return d
	}
	return &Manifest{
		SnapID:     7,
		SectorSize: 64,
		Sectors:    128,
		Writes: []Entry{
			{LBA: 3, Hash: HashChunk(chunk(3))},
			{LBA: 10, Hash: HashChunk(chunk(10))},
			{LBA: 77, Hash: HashChunk(chunk(77))},
		},
	}
}

func chunkData(b byte) []byte {
	d := make([]byte, 64)
	for i := range d {
		d[i] = b
	}
	return d
}

func buildStream(m *Manifest) []byte {
	w := NewStreamWriter(m)
	for _, e := range m.Writes {
		w.AddChunk(e.LBA, chunkData(byte(e.LBA)))
	}
	return w.Close()
}

func TestManifestRoundTrip(t *testing.T) {
	m := testManifest()
	m.BaseID = 42
	m.BaseSnapID = 6
	m.Deletes = []uint64{1, 2, 99}
	got, err := DecodeManifest(m.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.SnapID != m.SnapID || got.BaseSnapID != m.BaseSnapID || got.BaseID != m.BaseID {
		t.Fatalf("identity fields: %+v", got)
	}
	if got.SectorSize != m.SectorSize || got.Sectors != m.Sectors {
		t.Fatalf("geometry: %+v", got)
	}
	if len(got.Writes) != len(m.Writes) || len(got.Deletes) != len(m.Deletes) {
		t.Fatalf("lengths: %d writes, %d deletes", len(got.Writes), len(got.Deletes))
	}
	for i, e := range m.Writes {
		if got.Writes[i] != e {
			t.Fatalf("write %d: %+v != %+v", i, got.Writes[i], e)
		}
	}
	if got.ID() != m.ID() {
		t.Fatal("round-trip changed the manifest ID")
	}
}

func TestManifestIDChangesWithContent(t *testing.T) {
	a, b := testManifest(), testManifest()
	b.Writes[1].Hash ^= 1
	if a.ID() == b.ID() {
		t.Fatal("one changed sector hash must change the manifest ID")
	}
	if a.ID() == 0 || b.ID() == 0 {
		t.Fatal("manifest ID 0 is reserved for 'no base'")
	}
}

func TestManifestDecodeRejectsDamage(t *testing.T) {
	m := testManifest()
	enc := m.Encode()
	cases := []struct {
		name   string
		mangle func([]byte) []byte
		want   error
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }, ErrTruncated},
		{"bit-flip", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x10
			return c
		}, ErrBadChecksum},
		{"end-frame", func([]byte) []byte { return NewStreamWriter(testManifest()).Close()[len(enc):] }, ErrBadManifest},
		{"trailing-bytes", func(b []byte) []byte { return append(append([]byte(nil), b...), 0) }, ErrBadManifest},
	}
	for _, tc := range cases {
		if _, err := DecodeManifest(tc.mangle(enc)); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	// Unsorted writes are structural damage even with a valid checksum.
	bad := testManifest()
	bad.Writes[0], bad.Writes[1] = bad.Writes[1], bad.Writes[0]
	if _, err := DecodeManifest(bad.Encode()); !errors.Is(err, ErrBadManifest) {
		t.Errorf("unsorted writes: got %v, want ErrBadManifest", err)
	}
}

func TestStreamRoundTrip(t *testing.T) {
	m := testManifest()
	stream := buildStream(m)
	s := NewScanner(stream)

	f, err := s.Next()
	if err != nil || f.Type != FrameManifest {
		t.Fatalf("first frame: %+v, %v", f, err)
	}
	id := f.TransferID
	if id != m.ID() {
		t.Fatalf("manifest frame id %#x, want %#x", id, m.ID())
	}
	var chunks int
	for s.More() {
		f, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		switch f.Type {
		case FrameChunk:
			if f.Manifest != nil {
				t.Fatal("chunk frames carry no manifest")
			}
			if err := VerifyChunk(m, id, f); err != nil {
				t.Fatal(err)
			}
			chunks++
		case FrameEnd:
			if f.Chunks != uint64(chunks) {
				t.Fatalf("end frame says %d chunks, saw %d", f.Chunks, chunks)
			}
		}
	}
	if chunks != len(m.Writes) {
		t.Fatalf("scanned %d chunks, want %d", chunks, len(m.Writes))
	}
}

func TestScannerAttributesDamage(t *testing.T) {
	m := testManifest()
	stream := buildStream(m)

	// Truncation: the last frame's bytes are missing.
	s := NewScanner(stream[:len(stream)-10])
	var lastErr error
	for s.More() {
		if _, lastErr = s.Next(); lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrTruncated) || !Retryable(lastErr) {
		t.Fatalf("truncation: got %v (retryable %v)", lastErr, Retryable(lastErr))
	}

	// Bit flip inside a chunk frame: checksum catches it at that frame.
	flipped := append([]byte(nil), stream...)
	flipped[len(flipped)/2] ^= 0x04
	s = NewScanner(flipped)
	lastErr = nil
	for s.More() {
		if _, lastErr = s.Next(); lastErr != nil {
			break
		}
	}
	if !errors.Is(lastErr, ErrBadChecksum) || !Retryable(lastErr) {
		t.Fatalf("bit flip: got %v (retryable %v)", lastErr, Retryable(lastErr))
	}
}

func TestChunkReorderIsHarmless(t *testing.T) {
	m := testManifest()
	// Build the stream with chunks in reverse order: every chunk names its
	// own LBA, so verification does not depend on arrival order.
	w := NewStreamWriter(m)
	for i := len(m.Writes) - 1; i >= 0; i-- {
		w.AddChunk(m.Writes[i].LBA, chunkData(byte(m.Writes[i].LBA)))
	}
	s := NewScanner(w.Close())
	id := m.ID()
	var verified int
	for s.More() {
		f, err := s.Next()
		if err != nil {
			t.Fatal(err)
		}
		if f.Type == FrameChunk {
			if err := VerifyChunk(m, id, f); err != nil {
				t.Fatal(err)
			}
			verified++
		}
	}
	if verified != len(m.Writes) {
		t.Fatalf("verified %d reordered chunks, want %d", verified, len(m.Writes))
	}
}

func TestVerifyChunkRejections(t *testing.T) {
	m := testManifest()
	id := m.ID()
	good := Frame{Type: FrameChunk, TransferID: id, LBA: 3, Data: chunkData(3)}
	if err := VerifyChunk(m, id, good); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		f    Frame
		want error
	}{
		{"wrong transfer", Frame{TransferID: id ^ 1, LBA: 3, Data: chunkData(3)}, ErrWrongTransfer},
		{"unknown lba", Frame{TransferID: id, LBA: 4, Data: chunkData(4)}, ErrUnknownLBA},
		{"bad size", Frame{TransferID: id, LBA: 3, Data: chunkData(3)[:32]}, ErrBadStream},
		{"hash mismatch", Frame{TransferID: id, LBA: 3, Data: chunkData(5)}, ErrHashMismatch},
	}
	for _, tc := range cases {
		if err := VerifyChunk(m, id, tc.f); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	if !Retryable(VerifyChunk(m, id, cases[3].f)) {
		t.Error("hash mismatch must be retryable (a re-send can fix it)")
	}
	if Retryable(VerifyChunk(m, id, cases[0].f)) {
		t.Error("wrong-transfer must not be retryable")
	}
}

func TestEmptyManifestStream(t *testing.T) {
	// A delta with no changed sectors is legal: manifest + end frame only.
	m := &Manifest{SnapID: 1, BaseSnapID: 2, BaseID: 9, SectorSize: 64, Sectors: 16}
	s := NewScanner(NewStreamWriter(m).Close())
	f, err := s.Next()
	if err != nil || f.Type != FrameManifest {
		t.Fatalf("manifest frame: %v", err)
	}
	f, err = s.Next()
	if err != nil || f.Type != FrameEnd || f.Chunks != 0 {
		t.Fatalf("end frame: %+v, %v", f, err)
	}
	if s.More() {
		t.Fatal("trailing bytes after end frame")
	}
}

// TestEncodingsPinned: manifests and streams are a wire and file
// format, so the bytes the encoders produce are pinned by length and
// FNV-64a. A moved constant is a changed format: the old one is refused,
// never read, so it moves only with a change of format by design.
func TestEncodingsPinned(t *testing.T) {
	delta := testManifest()
	delta.BaseID, delta.BaseSnapID, delta.Deletes = 42, 6, []uint64{1, 2, 99}
	for _, tc := range []struct {
		name string
		b    []byte
		n    int
		sum  uint64
	}{
		{"manifest", delta.Encode(), 125, 0xf2ec44339a6fa44},
		{"stream", buildStream(testManifest()), 405, 0x388968c2fa61b50f},
		{"empty stream", NewStreamWriter(&Manifest{SnapID: 1, SectorSize: 64, Sectors: 16}).Close(), 78, 0xa4d261a722a74a04},
	} {
		if len(tc.b) != tc.n || HashChunk(tc.b) != tc.sum {
			t.Errorf("%s: %d bytes, FNV-64a %#x; pinned %d bytes, %#x", tc.name, len(tc.b), HashChunk(tc.b), tc.n, tc.sum)
		}
	}
}

// TestManifestCountsArePaidFor: a 1 MiB manifest claiming 2^20 writes (16
// MiB of them) is refused before anything is sized from the claim — the
// decoder allocates less than twice the manifest's own size.
func TestManifestCountsArePaidFor(t *testing.T) {
	body := make([]byte, 1<<20)
	binary.LittleEndian.PutUint32(body[24:], 64)    // SectorSize
	binary.LittleEndian.PutUint64(body[28:], 128)   // Sectors
	binary.LittleEndian.PutUint32(body[36:], 1<<20) // writes claimed
	var w codec.Writer
	w.Frame(codec.Manifest, body)
	enc := w.B
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeManifest(enc)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadManifest) {
		t.Fatalf("got %v, want ErrBadManifest", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2*uint64(len(enc)) {
		t.Fatalf("decoding a %d-byte manifest allocated %d bytes", len(enc), got)
	}
}

// TestManifestRefusesImpossibleImages: an LBA outside the image, or one
// both written and deleted, describes no image a receiver can apply and
// then verify.
func TestManifestRefusesImpossibleImages(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mangle func(*Manifest)
	}{
		{"write past the end", func(m *Manifest) { m.Writes[2].LBA = uint64(m.Sectors) }},
		{"delete past the end", func(m *Manifest) { m.Deletes = []uint64{5, 1 << 40} }},
		{"written and deleted", func(m *Manifest) { m.Deletes = []uint64{5, 10} }},
	} {
		m := testManifest()
		m.BaseID = 42
		tc.mangle(m)
		if _, err := DecodeManifest(m.Encode()); !errors.Is(err, ErrBadManifest) {
			t.Errorf("%s: got %v, want ErrBadManifest", tc.name, err)
		}
	}
}

package xport

import (
	"bytes"
	"encoding/binary"
	"testing"

	"iosnap/internal/codec"
)

// frame seals body as one frame of type typ, so the fuzzer gets past the
// checksum.
func frame(typ byte, body []byte) []byte {
	var w codec.Writer
	w.Frame(typ, body)
	return w.B
}

// A manifest comes back from a .gen sidecar file. Whatever the file holds,
// the decoder returns an error or a manifest that encodes to the very bytes
// it was decoded from: nothing is read but the one canonical encoding. An
// input is the file itself or, so the fuzzer gets past the checksum, a body
// sealed as a manifest frame.
func FuzzDecodeManifest(f *testing.F) {
	delta := testManifest()
	delta.BaseID, delta.BaseSnapID, delta.Deletes = 42, 6, []uint64{1, 2, 99}
	for _, m := range []*Manifest{testManifest(), delta, {SnapID: 1, SectorSize: 64, Sectors: 16}} {
		b := m.Encode()
		f.Add(false, b)
		f.Add(true, b[codec.HeadLen:len(b)-codec.TailLen])
	}
	hostile := make([]byte, 44) // 2^32-1 writes claimed in 44 bytes
	binary.LittleEndian.PutUint32(hostile[24:], 64)
	binary.LittleEndian.PutUint64(hostile[28:], 128)
	binary.LittleEndian.PutUint32(hostile[36:], 1<<32-1)
	f.Add(true, hostile)
	f.Fuzz(func(t *testing.T, sealed bool, b []byte) {
		if sealed {
			b = frame(codec.Manifest, b)
		}
		m, err := DecodeManifest(b)
		if err != nil {
			return
		}
		if again := m.Encode(); !bytes.Equal(again, b) {
			t.Fatalf("accepted manifest re-encodes differently:\n got %x\nwant %x", again, b)
		}
	})
}

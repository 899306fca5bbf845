package xport

import (
	"encoding/binary"
	"testing"
)

// A journal comes back from a sidecar file. Whatever the file holds, the
// decoder returns an error or a journal that encodes and decodes to itself.
func FuzzDecodeJournal(f *testing.F) {
	mid := NewJournal(0xABCD)
	mid.MarkApplied(3)
	mid.MarkApplied(77)
	mid.MarkApplied(1 << 40)
	mid.DeletesDone = true
	done := NewJournal(7)
	done.Committed = true
	hostile := binary.LittleEndian.AppendUint32(make([]byte, 10), 1<<32-1) // 2^32-1 entries in 14 bytes
	for _, b := range [][]byte{mid.Encode(), done.Encode(), NewJournal(1).Encode()} {
		f.Add(b[envHead : len(b)-envTail])
	}
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, body []byte) {
		j, err := DecodeJournal(seal(nil, journalMagic, xportVersion, body))
		if err != nil {
			return
		}
		again, err := DecodeJournal(j.Encode())
		if err != nil {
			t.Fatalf("re-encoded journal refused: %v", err)
		}
		if again.ManifestID != j.ManifestID || again.Committed != j.Committed || again.DeletesDone != j.DeletesDone ||
			again.AppliedCount() != j.AppliedCount() {
			t.Fatalf("journal changed across Encode: %+v -> %+v", j, again)
		}
		for lba := range j.applied {
			if !again.Applied(lba) {
				t.Fatalf("applied LBA %d lost across Encode", lba)
			}
		}
	})
}

// Package model is the one content model that checks what a device serves:
// the payload a sector holds at each version, the version each LBA holds in
// the active image, in each frozen snapshot image and in each writable view,
// and the walk that reads an image back. A model keeps one version per LBA,
// never bytes. Version 0 is the unwritten or trimmed sector: all zeros.
package model

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"maps"
	"slices"

	"iosnap/internal/sim"
)

// The payload of sector lba at version ver is a run of little-endian 64-bit
// words cut at the sector's end: the LBA, the version, then a splitmix ramp.
// The two stamp words set every (LBA, version) apart at any sector size; the
// ramp catches a torn sector.
type payload struct{ lba, ver, base uint64 }

func newPayload(lba int64, ver uint64) payload {
	z := uint64(lba)<<32 | ver
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return payload{uint64(lba), ver, z ^ z>>31}
}

func (p payload) word(k int) uint64 {
	switch {
	case p.ver == 0:
		return 0
	case k == 0:
		return p.lba
	case k == 1:
		return p.ver
	}
	return p.base + uint64(k-2)*0x9E3779B97F4A7C15
}

// Fill writes the payload of sector lba at version ver into b.
func Fill(b []byte, lba int64, ver uint64) {
	p := newPayload(lba, ver)
	var w [8]byte
	for k := 0; 8*k < len(b); k++ {
		binary.LittleEndian.PutUint64(w[:], p.word(k))
		copy(b[8*k:], w[:])
	}
}

// Check reports whether b holds the payload of sector lba at version ver,
// in one pass over b with no scratch buffer.
func Check(b []byte, lba int64, ver uint64) bool {
	p := newPayload(lba, ver)
	var w [8]byte
	for k := 0; 8*k < len(b); k++ {
		binary.LittleEndian.PutUint64(w[:], p.word(k))
		if !bytes.HasPrefix(b[8*k:], w[:min(8, len(b)-8*k)]) {
			return false
		}
	}
	return true
}

// Sectors returns n sectors of ss bytes from lba, all at version ver.
func Sectors(ss int, lba int64, n int, ver uint64) []byte {
	b := make([]byte, n*ss)
	for i := 0; i < n; i++ {
		Fill(b[i*ss:(i+1)*ss], lba+int64(i), ver)
	}
	return b
}

// Image is the version each LBA of one view of a device holds. A snapshot's
// image is frozen: writing it panics.
type Image struct {
	vers   map[int64]uint64
	frozen bool
}

// NewImage returns an empty writable image.
func NewImage() *Image { return &Image{vers: make(map[int64]uint64)} }

// Write records that lba now holds version ver (ver > 0).
func (im *Image) Write(lba int64, ver uint64) {
	im.mustWritable()
	im.vers[lba] = ver
}

// Trim records that lba reads as zeros again.
func (im *Image) Trim(lba int64) {
	im.mustWritable()
	delete(im.vers, lba)
}

func (im *Image) mustWritable() {
	if im.frozen {
		panic("model: write to a frozen image")
	}
}

// Version returns the version lba holds, 0 if none.
func (im *Image) Version(lba int64) uint64 { return im.vers[lba] }

// LBAs returns the LBAs that hold a version, in ascending order.
func (im *Image) LBAs() []int64 { return sortedKeys(im.vers) }

// Fork returns a writable copy of im, such as a view activated from it.
func (im *Image) Fork() *Image { return &Image{vers: maps.Clone(im.vers)} }

// A Verify read function returns ErrSkip to excuse the LBA, or ErrStop to
// end the walk without error. Verify's error for a sector that reads back
// wrong wraps ErrMismatch.
var (
	ErrSkip     = errors.New("model: skip this LBA")
	ErrStop     = errors.New("model: stop the walk")
	ErrMismatch = errors.New("content mismatch")
)

// Verify reads the LBAs of im in ascending order into a sector of ss bytes
// through read and checks each payload. It returns the first read error
// other than ErrSkip and ErrStop as is, or names the first bad sector.
func (im *Image) Verify(ss int, read func(lba int64, buf []byte) error) error {
	buf := make([]byte, ss)
	for _, lba := range im.LBAs() {
		switch err := read(lba, buf); err {
		case nil:
		case ErrSkip:
			continue
		case ErrStop:
			return nil
		default:
			return err
		}
		if ver := im.vers[lba]; !Check(buf, lba, ver) {
			return fmt.Errorf("LBA %d (version %d): %w", lba, ver, ErrMismatch)
		}
	}
	return nil
}

// At adapts a device read issued at virtual time now to Verify.
func At(read func(sim.Time, int64, []byte) (sim.Time, error), now sim.Time) func(int64, []byte) error {
	return func(lba int64, buf []byte) error {
		if _, err := read(now, lba, buf); err != nil {
			return fmt.Errorf("reading LBA %d: %w", lba, err)
		}
		return nil
	}
}

// Model is the active image plus one frozen image per live snapshot ID.
type Model[ID cmp.Ordered] struct {
	Active *Image
	snaps  map[ID]*Image
}

// New returns the model of an empty device with no snapshots.
func New[ID cmp.Ordered]() *Model[ID] {
	return &Model[ID]{Active: NewImage(), snaps: make(map[ID]*Image)}
}

// Freeze records snapshot id as a frozen copy of src: the active image, or
// the image of the view the snapshot was taken of.
func (m *Model[ID]) Freeze(id ID, src *Image) {
	im := src.Fork()
	im.frozen = true
	m.snaps[id] = im
}

// Snapshot returns the frozen image of snapshot id, nil if it is not live.
func (m *Model[ID]) Snapshot(id ID) *Image { return m.snaps[id] }

// Delete drops snapshot id.
func (m *Model[ID]) Delete(id ID) { delete(m.snaps, id) }

// IDs returns the live snapshot IDs in ascending order.
func (m *Model[ID]) IDs() []ID { return sortedKeys(m.snaps) }

// sortedKeys returns m's keys in ascending order, so that a walk or a
// seeded pick does not depend on Go's map order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

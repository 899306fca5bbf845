// Package header defines the out-of-band block header that the FTLs stamp
// into every NAND page (the paper's "data block header", §5.3.2). The
// header carries the page's logical address, the epoch it was written in,
// a global sequence number (for last-write-wins ordering during recovery),
// and a type tag distinguishing user data from the snapshot notes and
// checkpoint records that also live on the log.
package header

import (
	"encoding/binary"
	"errors"
	"fmt"

	"iosnap/internal/nand"
)

// Type tags a log page.
type Type uint8

// Log page types.
const (
	TypeInvalid Type = iota
	TypeData         // user data; LBA and Epoch are meaningful
	TypeSnapCreate
	TypeSnapDelete
	TypeSnapActivate
	TypeSnapDeactivate
	// TypeCheckpoint tags a checkpoint chunk: a generation is one stream
	// of sections cut into chunks, each carrying its index in the stream in
	// LBA and the stream's chunk count in Epoch — not a logical address or
	// an epoch.
	TypeCheckpoint

	// Types 7–9 tagged the three chunk streams a checkpoint was once split
	// into. They are retired: a generation whose chunks carry them is not a
	// checkpoint, so the mount falls back to the full scan, which ignores
	// such pages.

	// TypeMapPage tags a flash-resident translation page of the paged
	// forward map: LBA holds the translation-page index, Epoch is unused
	// (always 0). Map pages are not user data (no validity bits, skipped by
	// replay) and not checkpoint chunks (they are reached through the GTD,
	// not the anchor); the live copy of each translation page is pinned
	// against cleaning like a checkpoint chunk.
	TypeMapPage Type = 10
)

// IsCheckpoint reports whether t tags a checkpoint chunk — pages whose
// LBA/Epoch fields are chunk coordinates, which recovery replay and the
// cleaner's remap bookkeeping must skip.
func (t Type) IsCheckpoint() bool { return t == TypeCheckpoint }

func (t Type) String() string {
	switch t {
	case TypeData:
		return "data"
	case TypeSnapCreate:
		return "snap-create"
	case TypeSnapDelete:
		return "snap-delete"
	case TypeSnapActivate:
		return "snap-activate"
	case TypeSnapDeactivate:
		return "snap-deactivate"
	case TypeCheckpoint:
		return "checkpoint"
	case TypeMapPage:
		return "map-page"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Header is the decoded OOB area of a log page.
type Header struct {
	Type  Type
	LBA   uint64 // logical block address (TypeData), or snapshot id (notes)
	Epoch uint64 // epoch the page was written in; for notes, the epoch snapshotted/created
	Seq   uint64 // global, monotonically increasing write sequence number
}

const (
	magic   = 0xF7
	version = 1
	// encoded layout: magic(1) version(1) type(1) lba(8) epoch(8) seq(8) = 27
	encodedLen = 27
)

// Errors from Unmarshal.
var (
	ErrBadMagic   = errors.New("header: bad magic")
	ErrBadVersion = errors.New("header: unsupported version")
	ErrTooShort   = errors.New("header: buffer too short")
)

// Len is the encoded size of a header, for callers that marshal into
// pre-sized scratch buffers with MarshalInto.
const Len = encodedLen

// Marshal encodes h into a fresh OOB-sized buffer.
func (h Header) Marshal() []byte {
	b := make([]byte, encodedLen)
	h.MarshalInto(b)
	return b
}

// MarshalInto encodes h into b, which must be at least Len bytes. It exists
// so the per-page write path can marshal into reused scratch instead of
// allocating a fresh buffer for every page.
func (h Header) MarshalInto(b []byte) {
	b[0] = magic
	b[1] = version
	b[2] = byte(h.Type)
	binary.LittleEndian.PutUint64(b[3:], h.LBA)
	binary.LittleEndian.PutUint64(b[11:], h.Epoch)
	binary.LittleEndian.PutUint64(b[19:], h.Seq)
}

// Unmarshal decodes a header from OOB bytes.
func Unmarshal(b []byte) (Header, error) {
	if len(b) < encodedLen {
		return Header{}, fmt.Errorf("%w: %d bytes", ErrTooShort, len(b))
	}
	if b[0] != magic {
		return Header{}, ErrBadMagic
	}
	if b[1] != version {
		return Header{}, fmt.Errorf("%w: %d", ErrBadVersion, b[1])
	}
	return Header{
		Type:  Type(b[2]),
		LBA:   binary.LittleEndian.Uint64(b[3:]),
		Epoch: binary.LittleEndian.Uint64(b[11:]),
		Seq:   binary.LittleEndian.Uint64(b[19:]),
	}, nil
}

// static assertion that the encoding fits the device OOB area.
var _ = [1]struct{}{}[nand.OOBSize-encodedLen-5] // require OOBSize >= encodedLen+5 headroom

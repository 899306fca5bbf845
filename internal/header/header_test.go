package header

import (
	"errors"
	"testing"
	"testing/quick"

	"iosnap/internal/nand"
)

func TestRoundTrip(t *testing.T) {
	h := Header{Type: TypeData, LBA: 12345, Epoch: 7, Seq: 99}
	b := h.Marshal()
	if len(b) > nand.OOBSize {
		t.Fatalf("encoded header %d bytes exceeds OOB %d", len(b), nand.OOBSize)
	}
	got, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Fatalf("round trip: got %+v, want %+v", got, h)
	}
}

func TestRoundTripQuick(t *testing.T) {
	if err := quick.Check(func(typ uint8, lba, epoch, seq uint64) bool {
		h := Header{Type: Type(typ), LBA: lba, Epoch: epoch, Seq: seq}
		got, err := Unmarshal(h.Marshal())
		return err == nil && got == h
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); !errors.Is(err, ErrTooShort) {
		t.Fatalf("nil: %v", err)
	}
	b := Header{Type: TypeData}.Marshal()
	b[0] = 0
	if _, err := Unmarshal(b); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v", err)
	}
	b = Header{Type: TypeData}.Marshal()
	b[1] = 99
	if _, err := Unmarshal(b); !errors.Is(err, ErrBadVersion) {
		t.Fatalf("bad version: %v", err)
	}
}

func TestTypeString(t *testing.T) {
	for typ, want := range map[Type]string{
		TypeData:           "data",
		TypeSnapCreate:     "snap-create",
		TypeSnapDelete:     "snap-delete",
		TypeSnapActivate:   "snap-activate",
		TypeSnapDeactivate: "snap-deactivate",
		TypeCheckpoint:     "checkpoint",
		TypeMapPage:        "map-page",
		Type(7):            "type(7)",
	} {
		if typ.String() != want {
			t.Errorf("%d.String() = %q, want %q", typ, typ.String(), want)
		}
	}
}

// TestIsCheckpoint pins the type numbers — they are on flash, so one that
// moves misreads every image written before — and that only TypeCheckpoint
// tags a checkpoint chunk: the retired stream types 7–9 do not.
func TestIsCheckpoint(t *testing.T) {
	for typ, want := range map[Type]uint8{
		TypeInvalid: 0, TypeData: 1, TypeSnapCreate: 2, TypeSnapDelete: 3,
		TypeSnapActivate: 4, TypeSnapDeactivate: 5, TypeCheckpoint: 6, TypeMapPage: 10,
	} {
		if uint8(typ) != want {
			t.Errorf("%v is type %d, want %d", typ, uint8(typ), want)
		}
	}
	for typ := Type(0); typ < 16; typ++ {
		if got := typ.IsCheckpoint(); got != (typ == TypeCheckpoint) {
			t.Errorf("%v.IsCheckpoint() = %v", typ, got)
		}
	}
}

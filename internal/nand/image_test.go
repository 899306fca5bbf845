package nand

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"iosnap/internal/codec"
)

func TestImageRoundTrip(t *testing.T) {
	d := New(testConfig())
	data1 := fill(512, 0x11)
	data2 := fill(512, 0x22)
	if _, err := d.ProgramPage(0, 0, data1, []byte("a")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ProgramPage(0, 1, data2, []byte("b")); err != nil {
		t.Fatal(err)
	}
	if _, err := d.EraseSegment(0, 2); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatalf("SaveImage: %v", err)
	}
	d2, err := LoadImage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("LoadImage: %v", err)
	}

	if d2.Config() != d.Config() {
		t.Fatal("config not preserved")
	}
	got, oob, _, err := d2.ReadPage(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data1) || oob[0] != 'a' {
		t.Fatal("page 0 not preserved")
	}
	got, _, _, err = d2.ReadPage(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data2) {
		t.Fatal("page 1 not preserved")
	}
	if d2.EraseCount(2) != 1 {
		t.Fatal("erase count not preserved")
	}
	if d2.NextFreeInSegment(0) != 2 {
		t.Fatalf("nextProg not preserved: %d", d2.NextFreeInSegment(0))
	}
	// Program must resume exactly where it left off.
	if _, err := d2.ProgramPage(0, 2, data1, nil); err != nil {
		t.Fatalf("program after load: %v", err)
	}
}

func TestImageFingerprintMode(t *testing.T) {
	cfg := testConfig()
	cfg.StoreData = false
	d := New(cfg)
	data := fill(512, 0x77)
	if _, err := d.ProgramPage(0, 0, data, nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadImage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	fp, err := d2.PageFingerprint(0)
	if err != nil {
		t.Fatal(err)
	}
	if fp != Fingerprint(data) {
		t.Fatal("fingerprint not preserved")
	}
}

// TestImageHealthAndWearPersist: a retired segment must stay retired across
// save/load (the grown-bad-block table is device state, not FTL RAM), and the
// wear-model configuration must ride along with it.
func TestImageHealthAndWearPersist(t *testing.T) {
	cfg := testConfig()
	cfg.WearOutThreshold = 5
	cfg.WearOutProb = 0.25
	cfg.WearSeed = 99
	d := New(cfg)
	if _, err := d.ProgramPage(0, d.Addr(1, 0), fill(512, 0x5A), nil); err != nil {
		t.Fatal(err)
	}
	d.MarkSuspect(0)
	d.Retire(1)

	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadImage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if h := d2.SegmentHealth(0); h != Suspect {
		t.Fatalf("segment 0 health after reload = %v, want suspect", h)
	}
	if h := d2.SegmentHealth(1); h != Retired {
		t.Fatalf("segment 1 health after reload = %v, want retired", h)
	}
	if d2.Config().WearOutThreshold != 5 || d2.Config().WearOutProb != 0.25 {
		t.Fatal("wear model configuration lost on reload")
	}
	// The reloaded device still enforces retirement.
	if _, err := d2.EraseSegment(0, 1); !errors.Is(err, ErrRetired) {
		t.Fatalf("reloaded retired segment erasable: %v", err)
	}
	// And the surviving page is still readable.
	got, _, _, err := d2.ReadPage(0, d2.Addr(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, fill(512, 0x5A)) {
		t.Fatal("retired segment's page lost on reload")
	}
}

// TestImageAnchorPersists: the checkpoint anchor is device metadata and
// must survive save/load; its absence must survive too (nil stays nil, the
// "no checkpoint, full scan" state).
func TestImageAnchorPersists(t *testing.T) {
	d := New(testConfig())
	if a := d.Anchor(); a != nil {
		t.Fatalf("fresh device has anchor %+v", a)
	}
	d.SetAnchor(&Anchor{ID: 7, Addrs: []PageAddr{3, 9, 12}})

	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadImage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	a := d2.Anchor()
	if a == nil || a.ID != 7 || len(a.Addrs) != 3 || a.Addrs[2] != 12 {
		t.Fatalf("anchor after reload = %+v", a)
	}
	// Mutating the returned copy must not touch device state.
	a.Addrs[0] = 999
	if d2.Anchor().Addrs[0] != 3 {
		t.Fatal("Anchor() returned aliased state")
	}

	// Clearing round-trips as absent.
	d2.SetAnchor(nil)
	buf.Reset()
	if err := d2.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	d3, err := LoadImage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d3.Anchor() != nil {
		t.Fatal("cleared anchor resurrected by reload")
	}
}

// TestLoadImageGarbage: a stream that does not open with the image magic is
// refused as corrupt — text, nothing at all, and an image of the retired
// version 4, whose frames are the same shape but whose magic is not.
func TestLoadImageGarbage(t *testing.T) {
	var img bytes.Buffer
	if err := seededDevice(t, testConfig(), 1).SaveImage(&img); err != nil {
		t.Fatal(err)
	}
	v4 := append([]byte("ioSnapImg4\n"), img.Bytes()[len(imageMagic):]...)
	for name, img := range map[string][]byte{
		"text":     []byte("not an image"),
		"empty":    nil,
		"v4 image": v4,
	} {
		if d, err := LoadImage(bytes.NewReader(img)); !errors.Is(err, ErrImageCorrupt) || d != nil {
			t.Errorf("%s: LoadImage = %v, %v; want no device and ErrImageCorrupt", name, d, err)
		}
	}
}

// TestImageHeaderCarriesEveryField: the header is written field by field,
// so a Config or Stats field the encoder forgets would load as zero. Every
// field set to a distinct value must come back, with the anchor.
func TestImageHeaderCarriesEveryField(t *testing.T) {
	var cfg Config
	var st Stats
	n := 0
	for _, v := range []reflect.Value{reflect.ValueOf(&cfg).Elem(), reflect.ValueOf(&st).Elem()} {
		for i := 0; i < v.NumField(); i++ {
			n++
			switch f := v.Field(i); f.Kind() {
			case reflect.Int, reflect.Int64:
				f.SetInt(int64(100 + n))
			case reflect.Uint64:
				f.SetUint(uint64(100 + n))
			case reflect.Float64:
				f.SetFloat(float64(n) / 64)
			case reflect.Bool:
				f.SetBool(true)
			default:
				t.Fatalf("%s.%s is a %v, which the header does not carry", v.Type(), v.Type().Field(i).Name, f.Kind())
			}
		}
	}
	anchor := &Anchor{ID: 7, Addrs: []PageAddr{3, 1 << 40}}
	var w codec.Writer
	appendHeader(&w, cfg, st, anchor)
	_, payload, _, err := codec.Open(w.B, codec.MaxPayload)
	if err != nil {
		t.Fatal(err)
	}
	gotCfg, gotSt, gotAnchor, err := decodeHeader(payload)
	if err != nil || gotCfg != cfg || gotSt != st || !reflect.DeepEqual(gotAnchor, anchor) {
		t.Fatalf("header round trip: %+v %+v %+v (%v), want %+v %+v %+v", gotCfg, gotSt, gotAnchor, err, cfg, st, anchor)
	}
}

func TestImageStatsPreserved(t *testing.T) {
	d := New(testConfig())
	if _, err := d.ProgramPage(0, 0, fill(512, 1), nil); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := d.SaveImage(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := LoadImage(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d2.Stats().PagePrograms != 1 {
		t.Fatal("stats not preserved")
	}
}

package mapcache

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"

	"iosnap/internal/codec"
	"iosnap/internal/ftlmap"
	"iosnap/internal/sim"
)

// TestSlotsFor: 4-byte slots give a translation page twice the LBAs the
// 8-byte ones did, in the same sector.
func TestSlotsFor(t *testing.T) {
	if k := SlotsFor(512); k != 64 {
		t.Fatalf("SlotsFor(512) = %d, want 64", k)
	}
	if k := SlotsFor(4096); k != 512 {
		t.Fatalf("SlotsFor(4096) = %d, want 512", k)
	}
}

func TestPageCodecRoundTrip(t *testing.T) {
	const sector = 512
	k := SlotsFor(sector)
	slots := make([]uint32, k)
	for i := range slots {
		slots[i] = Unmapped
	}
	slots[3] = 12345
	slots[k-1] = Unmapped - 1
	payload := make([]byte, sector)
	for i := range payload {
		payload[i] = 0xEE // EncodePage must zero what the frame leaves
	}
	EncodePage(payload, 7, slots)
	idx, got, err := DecodePage(payload, nil)
	if err != nil {
		t.Fatalf("DecodePage: %v", err)
	}
	if idx != 7 || len(got) != k {
		t.Fatalf("idx %d with %d slots, want 7 with %d", idx, len(got), k)
	}
	for i := range slots {
		if got[i] != slots[i] {
			t.Fatalf("slot %d: %d, want %d", i, got[i], slots[i])
		}
	}
	if end := pageOverhead + 4*k; !bytes.Equal(payload[end:], make([]byte, sector-end)) {
		t.Fatal("sector padding not zeroed")
	}
	payload[10] ^= 0xFF
	if _, _, err := DecodePage(payload, nil); err == nil {
		t.Fatal("corrupted page decoded without error")
	}
}

// eightBytePage frames a translation page of 8-byte slots, [u64 idx][u32
// n][n × u64], as a frame of type typ in a sector.
func eightBytePage(typ byte, idx uint64, slots []uint64, sector int) []byte {
	w := codec.Writer{B: make([]byte, 0, sector)}
	start := w.Begin(typ)
	w.U64(idx)
	w.U32(uint32(len(slots)))
	w.U64s(slots)
	w.End(start)
	return append(w.B, make([]byte, sector-len(w.B))...)
}

// retiredPage is a page of 8-byte slots in the encoding translation pages
// had before they were codec frames: a one-section checkpoint stream —
// magic, version, ID, sequence, length, section count, the section's kind
// and length, the body, FNV-64a.
func retiredPage(idx uint64, slots []uint64, sector int) []byte {
	var body codec.Writer
	body.U64(idx)
	body.U32(uint32(len(slots)))
	body.U64s(slots)
	b := append([]byte("iCkp"), 1)
	b = binary.LittleEndian.AppendUint64(b, idx)
	b = binary.LittleEndian.AppendUint64(b, 1)
	b = binary.LittleEndian.AppendUint32(b, uint32(29+5+len(body.B)+8))
	b = binary.LittleEndian.AppendUint32(b, 1)
	b = append(b, 1)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(body.B)))
	b = append(b, body.B...)
	h := fnv.New64a()
	h.Write(b)
	b = binary.LittleEndian.AppendUint64(b, h.Sum64())
	return append(b, make([]byte, sector-len(b))...)
}

// TestDecodePageRefusesOldKind: a page of 8-byte slots is an error, never a
// misparse — whatever its slot count, framed as a translation page or as
// another frame type, or in the encoding pages had before the codec.
func TestDecodePageRefusesOldKind(t *testing.T) {
	for _, n := range []int{32, 64} {
		slots := make([]uint64, n)
		for i := range slots {
			slots[i] = uint64(i)
		}
		for name, page := range map[string][]byte{
			"page frame":    eightBytePage(codec.MapPage, 3, slots, 1024),
			"foreign frame": eightBytePage(codec.CkptMap, 3, slots, 1024),
			"retired":       retiredPage(3, slots, 1024),
		} {
			if _, _, err := DecodePage(page, nil); err == nil {
				t.Fatalf("%d-slot %s page decoded", n, name)
			}
		}
	}
}

// FuzzDecodePage: translation pages come back from flash, and flash comes
// back from an image file. No payload may panic the decoder; one it
// accepts is a translation-page frame that EncodePage writes back byte for
// byte (up to the sector padding after the frame), so nothing else decodes.
// An input is either a raw payload or, so the fuzzer gets past the
// checksum, a payload sealed as a frame of the given type.
func FuzzDecodePage(f *testing.F) {
	const sector = 512
	k := SlotsFor(sector)
	full, empty := make([]uint32, k), make([]uint32, k)
	for i := range full {
		full[i], empty[i] = uint32(i)*7919, Unmapped
	}
	var pages [][]byte
	for _, slots := range [][]uint32{full, empty} {
		p := make([]byte, sector)
		EncodePage(p, 5, slots)
		pages = append(pages, p)
	}
	pages = append(pages, eightBytePage(codec.MapPage, 5, make([]uint64, 32), sector), retiredPage(5, make([]uint64, 32), sector))
	for i, p := range pages {
		f.Add(false, uint8(0), p)
		if typ, body, _, err := codec.Open(p, sector); err == nil {
			f.Add(true, typ, body)
			if i == 0 {
				f.Add(true, uint8(codec.CkptMap), body) // a page body under a foreign type
			}
		}
	}
	f.Fuzz(func(t *testing.T, sealed bool, typ uint8, data []byte) {
		payload := data
		if sealed {
			var w codec.Writer
			w.Frame(typ, data)
			payload = w.B
		}
		idx, slots, err := DecodePage(payload, nil)
		if err != nil {
			return
		}
		got, _, n, err := codec.Open(payload, len(payload))
		if err != nil || got != codec.MapPage {
			t.Fatalf("DecodePage accepted a frame of type %d (%v)", got, err)
		}
		again := make([]byte, len(payload))
		EncodePage(again, idx, slots)
		if !bytes.Equal(again[:n], payload[:n]) {
			t.Fatalf("page %d with %d slots re-encodes differently:\n got %x\nwant %x", idx, len(slots), again[:n], payload[:n])
		}
	})
}

// TestInsertRefusesWideValue: a value that does not fit a 4-byte slot
// panics before the map changes.
func TestInsertRefusesWideValue(t *testing.T) {
	for _, insert := range []func(m Map){
		func(m Map) { m.Insert(5, uint64(Unmapped)) },
		func(m Map) { m.InsertRun([]ftlmap.Entry{{Key: 5, Val: 1 << 40}}, nil) },
	} {
		m := NewCache(SlotsFor(512), 1, nil)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("insert of a value wider than a slot did not panic")
				}
			}()
			insert(m)
		}()
		if m.Len() != 0 {
			t.Fatalf("refused insert left %d mappings", m.Len())
		}
	}
}

// refMap is the reference forward map the tests check a Map against: a Go
// map, walked in key order where the Map's contract is ordered.
type refMap map[uint64]uint64

func (r refMap) insert(k, v uint64) (prev uint64, existed bool) {
	prev, existed = r[k]
	r[k] = v
	return prev, existed
}

// deleteRange removes [lo, hi), returning the removed pairs ascending.
func (r refMap) deleteRange(lo, hi uint64) (dels []uint64) {
	for k := lo; k < hi; k++ {
		if v, ok := r[k]; ok {
			dels = append(dels, k, v)
			delete(r, k)
		}
	}
	return dels
}

// checkAll compares m.All's ascending walk with the reference.
func (r refMap) checkAll(t *testing.T, m Map) {
	t.Helper()
	keys := make([]uint64, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	i := 0
	m.All(func(k, v uint64) bool {
		if i >= len(keys) || k != keys[i] || v != r[k] {
			t.Fatalf("All[%d]: (%d,%d) out of step with the reference", i, k, v)
		}
		i++
		return true
	})
	if i != len(keys) {
		t.Fatalf("All visited %d mappings, the reference holds %d", i, len(keys))
	}
}

// opMix drives a random operation sequence through a Map and a reference
// Go map and checks full agreement.
func opMix(t *testing.T, m Map, seed uint64, space uint64, steps int) {
	t.Helper()
	ref := refMap{}
	rng := sim.NewRNG(seed)
	vals := make([]uint64, 16)
	found := make([]bool, 16)
	val := func() uint64 { return uint64(rng.Int63n(int64(Unmapped))) } // any page address
	for step := 0; step < steps; step++ {
		lba := uint64(rng.Int63n(int64(space)))
		switch uint64(rng.Int63n(int64(10))) {
		case 0, 1, 2: // single insert
			v := val()
			p1, e1 := m.Insert(lba, v)
			p2, e2 := ref.insert(lba, v)
			if p1 != p2 || e1 != e2 {
				t.Fatalf("step %d: Insert(%d) -> (%d,%v), ref (%d,%v)", step, lba, p1, e1, p2, e2)
			}
		case 3, 4: // run insert
			n := 1 + uint64(rng.Int63n(int64(40)))
			entries := make([]ftlmap.Entry, 0, n)
			for i := uint64(0); i < n; i++ {
				entries = append(entries, ftlmap.Entry{Key: lba + i, Val: val()})
			}
			var prevs1, prevs2 []uint64
			m.InsertRun(entries, func(i int, prev uint64) { prevs1 = append(prevs1, uint64(i)<<48|prev) })
			for i, e := range entries {
				if prev, existed := ref.insert(e.Key, e.Val); existed {
					prevs2 = append(prevs2, uint64(i)<<48|prev)
				}
			}
			if !slices.Equal(prevs1, prevs2) {
				t.Fatalf("step %d: InsertRun prevs %x, ref %x", step, prevs1, prevs2)
			}
		case 5, 6: // delete: a single key or a range
			n := uint64(1)
			if rng.Int63n(2) == 0 {
				n += uint64(rng.Int63n(int64(60)))
			}
			var dels []uint64
			got := m.DeleteRange(lba, lba+n, func(k, v uint64) { dels = append(dels, k, v) })
			want := ref.deleteRange(lba, lba+n)
			if got != len(want)/2 || !slices.Equal(dels, want) {
				t.Fatalf("step %d: DeleteRange(%d, %d) removed %d %v, ref %v", step, lba, lba+n, got, dels, want)
			}
		case 7, 8: // range lookup
			n := 1 + uint64(rng.Int63n(int64(16)))
			clear(vals)
			clear(found)
			hits := m.LookupRange(lba, vals[:n], found[:n])
			want := 0
			for i := uint64(0); i < n; i++ {
				rv, rok := ref[lba+i]
				if rok {
					want++
				}
				if found[i] != rok || (rok && vals[i] != rv) {
					t.Fatalf("step %d: LookupRange[%d] (%d,%v) vs (%d,%v)", step, i, vals[i], found[i], rv, rok)
				}
			}
			if hits != want {
				t.Fatalf("step %d: LookupRange hits %d vs %d", step, hits, want)
			}
		default: // point lookup
			v1, ok1 := m.Lookup(lba)
			v2, ok2 := ref[lba]
			if v1 != v2 || ok1 != ok2 {
				t.Fatalf("step %d: Lookup(%d) -> (%d,%v), ref (%d,%v)", step, lba, v1, ok1, v2, ok2)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("step %d: Len %d vs %d", step, m.Len(), len(ref))
		}
	}
	ref.checkAll(t, m)
}

// TestUnboundedPagedMatchesTree: a cache whose limit covers every page of
// the key space (4096 keys / 32 slots = 128 pages) never faults and agrees
// with the reference map operation for operation, as the tree does
// (TestTreeModeDelegates).
func TestUnboundedPagedMatchesTree(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		c := NewCache(32, 4096/32, nil)
		opMix(t, c, seed, 4096, 3000)
		if c.Stats().Misses != 0 {
			t.Fatalf("whole-map cache faulted %d pages", c.Stats().Misses)
		}
	}
}

// TestNewCacheRefusesLimitBelowOne: the cache is always bounded; a limit
// below one page is a caller bug, not an unbounded mode.
func TestNewCacheRefusesLimitBelowOne(t *testing.T) {
	for _, limit := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewCache with limit %d did not panic", limit)
				}
			}()
			NewCache(32, limit, nil)
		}()
	}
}

// flashSim backs a bounded cache with an in-memory "flash": a map from
// fake address to encoded page, exercising the real wire codec.
type flashSim struct {
	t      *testing.T
	sector int
	next   uint64
	store  map[uint64][]byte
}

func (fs *flashSim) fault(idx, addr uint64) ([]byte, error) {
	payload, ok := fs.store[addr]
	if !ok {
		fs.t.Fatalf("fault of page %d at unknown addr %d", idx, addr)
	}
	return payload, nil
}

// trim evicts down to the residency limit the way the FTL glue does:
// CLOCK victim, flush if dirty, drop.
func (fs *flashSim) trim(c *Cache) {
	for c.Resident() > c.Limit() {
		idx, ok := c.ClockVictim(nil)
		if !ok {
			fs.t.Fatal("no evictable page while over limit")
		}
		dirty, live, resident := c.PageState(idx)
		if !resident {
			fs.t.Fatalf("victim %d not resident", idx)
		}
		switch {
		case live == 0:
			if _, had := c.DropPage(idx); had {
				// flash copy released; nothing to unpin in this harness
				_ = had
			}
		case dirty:
			fs.next++
			fs.store[fs.next] = make([]byte, fs.sector)
			EncodePage(fs.store[fs.next], idx, c.Slots(idx))
			if prev, had := c.MarkFlushed(idx, fs.next); had {
				delete(fs.store, prev)
			}
			c.NoteFlushed(1)
			fallthrough
		default:
			c.DropResident(idx)
			c.NoteEviction()
		}
	}
}

func TestBoundedCacheMatchesTree(t *testing.T) {
	const sector = 512
	for seed := uint64(1); seed <= 4; seed++ {
		fs := &flashSim{t: t, sector: sector, store: make(map[uint64][]byte)}
		c := NewCache(SlotsFor(sector), 4, fs.fault)
		ref := refMap{}
		rng := sim.NewRNG(seed ^ 0x9E3779B9)
		for step := 0; step < 4000; step++ {
			lba := uint64(rng.Int63n(int64(2048)))
			switch uint64(rng.Int63n(int64(6))) {
			case 0, 1, 2:
				val := uint64(rng.Int63n(int64(Unmapped))) // page addresses fit 32 bits
				p1, e1 := c.Insert(lba, val)
				p2, e2 := ref.insert(lba, val)
				if p1 != p2 || e1 != e2 {
					t.Fatalf("seed %d step %d: Insert mismatch", seed, step)
				}
			case 3:
				var dels []uint64
				c.DeleteRange(lba, lba+1, func(k, v uint64) { dels = append(dels, k, v) })
				if want := ref.deleteRange(lba, lba+1); !slices.Equal(dels, want) {
					t.Fatalf("seed %d step %d: DeleteRange removed %v, ref %v", seed, step, dels, want)
				}
			default:
				v1, ok1 := c.Lookup(lba)
				v2, ok2 := ref[lba]
				if v1 != v2 || ok1 != ok2 {
					t.Fatalf("seed %d step %d: Lookup(%d) (%d,%v) vs (%d,%v)",
						seed, step, lba, v1, ok1, v2, ok2)
				}
			}
			fs.trim(c)
			if c.Len() != len(ref) {
				t.Fatalf("seed %d step %d: Len %d vs %d", seed, step, c.Len(), len(ref))
			}
		}
		if c.Resident() > c.Limit() {
			t.Fatalf("resident %d over limit %d", c.Resident(), c.Limit())
		}
		if c.Stats().Misses == 0 || c.Stats().Flushed == 0 {
			t.Fatalf("bounded run saw no cache traffic: %+v", c.Stats())
		}
		// Full-content audit via the transient walk (faults without install).
		before := c.Resident()
		ref.checkAll(t, c)
		if c.Resident() != before {
			t.Fatalf("All changed residency %d -> %d", before, c.Resident())
		}
		if c.ResidentBytes() >= c.MemoryBytes() {
			t.Fatalf("resident bytes %d not below total %d", c.ResidentBytes(), c.MemoryBytes())
		}
	}
}

// TestTreeModeDelegates: the in-RAM tree is a Map too, and agrees with the
// reference map operation for operation.
func TestTreeModeDelegates(t *testing.T) {
	opMix(t, ftlmap.New(), 11, 4096, 1500)
}

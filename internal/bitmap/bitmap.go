// Package bitmap provides the validity-tracking structures of the FTL: a
// plain dense bitmap, and the paper's copy-on-write *per-epoch* validity
// maps (ioSnap §5.4.1).
//
// A validity bit records whether the physical page at that index holds data
// that is live from some epoch's point of view. Instead of copying the whole
// bitmap at snapshot creation (512 MB per snapshot on the paper's 2 TB /
// 512 B device), each epoch owns only the bitmap *pages* it has modified and
// inherits the rest from its parent epoch; the first modification of an
// inherited page copies it (one "CoW event", the quantity plotted in the
// paper's Figure 7b).
package bitmap

import (
	"fmt"
	"math/bits"
)

const wordBits = 64

// Bitmap is a dense, fixed-size bitmap.
type Bitmap struct {
	words []uint64
	n     int64
}

// New returns a zeroed bitmap of n bits.
func New(n int64) *Bitmap {
	if n < 0 {
		panic("bitmap: negative size")
	}
	return &Bitmap{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the number of bits.
func (b *Bitmap) Len() int64 { return b.n }

func (b *Bitmap) checkIdx(i int64) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("bitmap: index %d out of range [0,%d)", i, b.n))
	}
}

// Set sets bit i.
func (b *Bitmap) Set(i int64) {
	b.checkIdx(i)
	b.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i.
func (b *Bitmap) Clear(i int64) {
	b.checkIdx(i)
	b.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// SetRange sets every bit in [lo, hi) a word at a time, with masked
// boundary words — the foreground data path's counterpart of CountRange.
func (b *Bitmap) SetRange(lo, hi int64) {
	if hi <= lo {
		return
	}
	b.checkIdx(lo)
	b.checkIdx(hi - 1)
	setWordRange(b.words, lo, hi)
}

// ClearRange clears every bit in [lo, hi) a word at a time.
func (b *Bitmap) ClearRange(lo, hi int64) {
	if hi <= lo {
		return
	}
	b.checkIdx(lo)
	b.checkIdx(hi - 1)
	clearWordRange(b.words, lo, hi)
}

// setWordRange sets bits [lo, hi) of a raw word array; hi > lo.
func setWordRange(words []uint64, lo, hi int64) {
	loW, hiW := lo/wordBits, (hi-1)/wordBits
	loMask := ^uint64(0) << uint(lo%wordBits)
	hiMask := ^uint64(0) >> uint(wordBits-(hi-hiW*wordBits))
	if loW == hiW {
		words[loW] |= loMask & hiMask
		return
	}
	words[loW] |= loMask
	for w := loW + 1; w < hiW; w++ {
		words[w] = ^uint64(0)
	}
	words[hiW] |= hiMask
}

// clearWordRange clears bits [lo, hi) of a raw word array; hi > lo.
func clearWordRange(words []uint64, lo, hi int64) {
	loW, hiW := lo/wordBits, (hi-1)/wordBits
	loMask := ^uint64(0) << uint(lo%wordBits)
	hiMask := ^uint64(0) >> uint(wordBits-(hi-hiW*wordBits))
	if loW == hiW {
		words[loW] &^= loMask & hiMask
		return
	}
	words[loW] &^= loMask
	for w := loW + 1; w < hiW; w++ {
		words[w] = 0
	}
	words[hiW] &^= hiMask
}

// Test reports whether bit i is set.
func (b *Bitmap) Test(i int64) bool {
	b.checkIdx(i)
	return b.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// NextSet returns the index of the first set bit at or after i, and false
// when there is none: for i, ok := b.NextSet(0); ok; i, ok = b.NextSet(i + 1)
// visits the set bits in ascending order at a word per 64 clear ones.
func (b *Bitmap) NextSet(i int64) (int64, bool) {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return 0, false
	}
	w := i / wordBits
	if rest := b.words[w] >> uint(i%wordBits); rest != 0 {
		return i + int64(bits.TrailingZeros64(rest)), true
	}
	for w++; w < int64(len(b.words)); w++ {
		if b.words[w] != 0 {
			return w*wordBits + int64(bits.TrailingZeros64(b.words[w])), true
		}
	}
	return 0, false
}

// Or merges other into b (bitwise OR). The bitmaps must be the same length.
func (b *Bitmap) Or(other *Bitmap) {
	if b.n != other.n {
		panic("bitmap: Or of mismatched lengths")
	}
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// CountRange returns the number of set bits in [lo, hi), popcounting a word
// at a time with masked boundary words.
func (b *Bitmap) CountRange(lo, hi int64) int {
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	if lo >= hi {
		return 0
	}
	loWord, hiWord := lo/wordBits, (hi-1)/wordBits
	if loWord == hiWord {
		w := b.words[loWord] >> uint(lo%wordBits)
		return bits.OnesCount64(w << uint(wordBits-(hi-lo)) >> uint(wordBits-(hi-lo)))
	}
	n := bits.OnesCount64(b.words[loWord] >> uint(lo%wordBits))
	for w := loWord + 1; w < hiWord; w++ {
		n += bits.OnesCount64(b.words[w])
	}
	tail := hi - hiWord*wordBits // 1..64 bits of the last word
	n += bits.OnesCount64(b.words[hiWord] << uint(wordBits-tail) >> uint(wordBits-tail))
	return n
}

// Count returns the total number of set bits.
func (b *Bitmap) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Reset zeroes every bit in place, preserving the backing storage.
func (b *Bitmap) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// CopyFrom overwrites b with other's bits. The bitmaps must be the same
// length.
func (b *Bitmap) CopyFrom(other *Bitmap) {
	if b.n != other.n {
		panic("bitmap: CopyFrom of mismatched lengths")
	}
	copy(b.words, other.words)
}

// Equal reports whether b and other hold identical bits. Bitmaps of
// different lengths are never equal.
func (b *Bitmap) Equal(other *Bitmap) bool {
	if b.n != other.n {
		return false
	}
	for i, w := range b.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// Clone returns a deep copy.
func (b *Bitmap) Clone() *Bitmap {
	c := &Bitmap{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

func popcount(x uint64) int { return bits.OnesCount64(x) }

package check

import "repro/internal/trace"

// This file is the dense-bitset vocabulary of the classical checker
// (DESIGN.md, decision 13): its placed-operation set was a single uint64,
// hard-failing past 63 operations — BitSet is its uncapped
// representation at every length, with an incrementally-maintained
// 128-bit digest (trace.HashBit) folded into the memo key exactly as the
// chain/multiset digests of decision 7.

// bitsPerWord is the word granularity of the spill representations.
const bitsPerWord = 64

// BitSet is a mutable word-array bitset over dense indices with an
// incrementally-maintained popcount and 128-bit digest: Add/Remove cost
// O(1) and the digest (a lane-wise sum of trace.HashBit components,
// invertible like every decision-7 digest) re-keys the set for memo maps
// without re-serialization. The zero value is an empty set that grows on
// first Add; NewBitSet pre-sizes the words.
type BitSet struct {
	words []uint64
	n     int
	dig   trace.Digest
}

// NewBitSet returns an empty set pre-sized for members 0..n-1.
func NewBitSet(n int) BitSet {
	return BitSet{words: make([]uint64, (n+bitsPerWord-1)/bitsPerWord)}
}

// Has reports whether i is a member.
func (b *BitSet) Has(i int) bool {
	w := i / bitsPerWord
	return w < len(b.words) && b.words[w]&(1<<(uint(i)%bitsPerWord)) != 0
}

// Add inserts i. Inserting a present member panics: the search engines
// toggle membership in matched add/remove pairs, so a double insert is a
// bookkeeping bug (mirroring trace.Multiset's negative-count panic).
func (b *BitSet) Add(i int) {
	w, m := i/bitsPerWord, uint64(1)<<(uint(i)%bitsPerWord)
	for w >= len(b.words) {
		b.words = append(b.words, 0)
	}
	if b.words[w]&m != 0 {
		panic("check: BitSet.Add of a present member")
	}
	b.words[w] |= m
	b.n++
	b.dig = b.dig.Add(trace.HashBit(i))
}

// Remove deletes i, panicking if absent (see Add).
func (b *BitSet) Remove(i int) {
	w, m := i/bitsPerWord, uint64(1)<<(uint(i)%bitsPerWord)
	if w >= len(b.words) || b.words[w]&m == 0 {
		panic("check: BitSet.Remove of an absent member")
	}
	b.words[w] &^= m
	b.n--
	b.dig = b.dig.Sub(trace.HashBit(i))
}

// Len returns the number of members (the maintained popcount).
func (b *BitSet) Len() int { return b.n }

// Digest returns the canonical 128-bit digest of the membership set.
func (b *BitSet) Digest() trace.Digest { return b.dig }

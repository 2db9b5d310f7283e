package check

import (
	"math/bits"

	"repro/internal/trace"
)

// This file is the shared dense-bitset vocabulary of the checkers
// (DESIGN.md, decision 13). Two former 64-member caps fall to it:
//
//   - the classical checker's placed-operation set was a single uint64,
//     hard-failing past 63 operations — BitSet is its
//     uncapped spill representation, with an incrementally-maintained
//     128-bit digest (trace.HashBit) folded into the memo key exactly as
//     the chain/multiset digests of decision 7;
//   - the sleep sets of the partial-order reduction (decision 12) silently
//     never slept symbols ≥ 64 — SleepSet now spills the same word-array
//     representation, so high symbols prune too.
//
// Both keep their single-word fast paths: BitSet callers with ≤ 63
// members can (and the classical engine does) stay on a raw uint64 word,
// and a SleepSet with no high symbols never allocates.

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
// bookkeeping bug (mirroring SymMultiset's negative-count panic).
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

// SleepSet is a sleep set over interned symbols. Symbols 0..63 live in an
// inline word — the overwhelmingly common case (symbol spaces of single
// traces are small), costing no allocation and copying by value exactly
// like the former uint64 representation. Symbols ≥ 64 spill to a
// copy-on-write sorted list, so high symbols sleep too, at a cost in the
// number of symbols asleep — never in how high the interner has counted,
// which on a streaming session is the length of the history (DESIGN.md,
// decision 19). The zero value is the empty sleep set.
//
// Value semantics: Add returns a new set and never mutates a shared
// spill list, so sibling branches of a search may hold diverging sets
// cheaply.
type SleepSet struct {
	lo uint64
	// hi holds the sleeping symbols ≥ 64 in ascending order. The slice is
	// immutable once attached to a set (copy-on-write in Add).
	hi []trace.Sym
}

// Empty reports whether no symbol is asleep.
func (s SleepSet) Empty() bool { return s.lo == 0 && len(s.hi) == 0 }

// Has reports whether sym is asleep.
func (s SleepSet) Has(sym trace.Sym) bool {
	if sym < bitsPerWord {
		return s.lo&(1<<sym) != 0
	}
	for _, h := range s.hi {
		if h >= sym {
			return h == sym
		}
	}
	return false
}

// Add returns the set with sym asleep. High symbols copy the spill list
// (sets are shared across sibling branches); the common ≤63 case stays
// allocation-free.
func (s SleepSet) Add(sym trace.Sym) SleepSet {
	if sym < bitsPerWord {
		s.lo |= 1 << sym
		return s
	}
	at := len(s.hi)
	for i, h := range s.hi {
		if h == sym {
			return s
		}
		if h > sym {
			at = i
			break
		}
	}
	hi := make([]trace.Sym, 0, len(s.hi)+1)
	hi = append(append(append(hi, s.hi[:at]...), sym), s.hi[at:]...)
	s.hi = hi
	return s
}

// Intersect returns the set of symbols asleep in both s and o. The
// slin frontier engine uses it when two expansion paths reach the same
// configuration digest while carrying different sleep sets (DESIGN.md,
// decision 17): only a symbol slept on every path into the merged node
// may stay asleep — the union would prune orders that some path still
// owes — so intersection is the sound merge.
func (s SleepSet) Intersect(o SleepSet) SleepSet {
	out := SleepSet{lo: s.lo & o.lo}
	for i, j := 0, 0; i < len(s.hi) && j < len(o.hi); {
		switch a, b := s.hi[i], o.hi[j]; {
		case a < b:
			i++
		case a > b:
			j++
		default:
			out.hi = append(out.hi, a)
			i, j = i+1, j+1
		}
	}
	return out
}

// forEach calls fn with every sleeping symbol in increasing order.
func (s SleepSet) forEach(fn func(trace.Sym)) {
	for rest := s.lo; rest != 0; rest &= rest - 1 {
		fn(trace.Sym(bits.TrailingZeros64(rest)))
	}
	for _, sym := range s.hi {
		fn(sym)
	}
}

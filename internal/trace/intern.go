package trace

// This file implements the compact state-representation layer used by the
// exact checkers (packages lin and slin): values are interned to dense
// small-integer symbols, and search states carry incrementally-maintained
// 128-bit digests so memoization keys are fixed-size comparable structs
// instead of freshly-built strings. See DESIGN.md, decision 7.

// Sym is a dense small-integer id for an interned Value. Symbols are local
// to the Interner that produced them; the zero Interner assigns symbols in
// first-intern order starting from 0.
type Sym uint32

// Interner maps Values to dense symbols and back. It is not safe for
// concurrent use; checkers create one per call (symbol spaces are small:
// one symbol per distinct input of a trace).
type Interner struct {
	syms map[Value]Sym
	vals []Value
}

// NewInterner returns an empty interner.
func NewInterner() *Interner {
	return &Interner{syms: make(map[Value]Sym, 16)}
}

// Sym interns v, returning its symbol (allocating a new one on first
// sight).
func (in *Interner) Sym(v Value) Sym {
	if s, ok := in.syms[v]; ok {
		return s
	}
	s := Sym(len(in.vals))
	in.syms[v] = s
	in.vals = append(in.vals, v)
	return s
}

// Value returns the value interned as s.
func (in *Interner) Value(s Sym) Value { return in.vals[s] }

// Len returns the number of distinct interned values.
func (in *Interner) Len() int { return len(in.vals) }

// Digest is a 128-bit incremental hash over a set of independently-hashed
// components. Components combine by lane-wise wrapping addition, which is
// invertible: a component can be removed by subtracting its hash, so
// search structures (chains, multisets) maintain their digest in O(1) per
// mutation. Position/count parameters are mixed into each component's
// hash, so reorderings hash differently wherever order matters.
//
// Digests are used as memoization map keys; with 128 bits and strong
// per-component mixing, accidental collisions are negligible relative to
// search budgets (~2^-90 per pair of distinct states at the default
// 2e6-node budget).
type Digest [2]uint64

// Add returns the digest with component d2 added.
func (d Digest) Add(d2 Digest) Digest { return Digest{d[0] + d2[0], d[1] + d2[1]} }

// Sub returns the digest with component d2 removed.
func (d Digest) Sub(d2 Digest) Digest { return Digest{d[0] - d2[0], d[1] - d2[1]} }

// mix64 is the splitmix64 finalizer: a bijective avalanche mix.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// lane keys: arbitrary odd constants making the two 64-bit lanes
// independent hash functions of the same input.
const (
	laneKey0 = 0x9e3779b97f4a7c15
	laneKey1 = 0xc2b2ae3d27d4eb4f
)

func hash2(x uint64) Digest {
	return Digest{mix64(x ^ laneKey0), mix64(x ^ laneKey1)}
}

// HashElem hashes an (index, symbol, flag) chain element. The flag bit
// carries per-position state (e.g. "this prefix length is claimed"), so
// flipping it re-keys the element in O(1).
func HashElem(pos int, s Sym, flag bool) Digest {
	x := uint64(pos)<<34 | uint64(s)<<1
	if flag {
		x |= 1
	}
	return hash2(x)
}

// HashCount hashes a (symbol, multiplicity) multiset entry. Entries with
// multiplicity zero must not be included, making the digest canonical.
func HashCount(s Sym, count int) Digest {
	return hash2(uint64(s)<<32 | uint64(uint32(count)) | 1<<63)
}

// HashOutput hashes one unclaimed chain entry of a streaming frontier
// configuration: the symbol of an open operation the configuration has
// linearized and the output it was linearized to (DESIGN.md, decision
// 20). Identity sums these components with no position in them, so the
// order entries were appended in leaves the digest. The output is hashed
// by content, not interned.
func HashOutput(s Sym, out Value) Digest {
	x, d := uint64(s)<<34, HashString(out)
	return Digest{mix64(d[0] ^ x), mix64(d[1] ^ x)}
}

// HashBit hashes set-membership of index i, the component hash of the
// word-array bitsets whose digests are maintained incrementally by
// popcount-style add/remove (check.BitSet; the classical checker's
// sparse placed sets fold it into their memo keys). The high tag bit
// separates the component space from HashElem and HashCount.
func HashBit(i int) Digest {
	return hash2(uint64(uint32(i)) | 1<<62)
}

// HashString hashes an arbitrary string to a 128-bit digest: two
// independently-seeded FNV-1a lanes, each finished with the splitmix64
// avalanche and mixed with the length. The model checker's state
// deduplication keys on these digests instead of retaining full
// canonical state strings (check.ExhaustiveStates); as with the checker
// memo keys, accidental collisions (~2⁻¹²⁸ per pair) would merge two
// distinct states, and ExhaustiveStatesReference retains the exact
// string-keyed exploration as the cross-checked reference.
func HashString(s string) Digest {
	const (
		fnvOffset = 14695981039346656037
		fnvPrime  = 1099511628211
	)
	a := uint64(fnvOffset) ^ laneKey0
	b := uint64(fnvOffset) ^ laneKey1
	for i := 0; i < len(s); i++ {
		c := uint64(s[i])
		a = (a ^ c) * fnvPrime
		b = (b ^ (c << 1)) * fnvPrime
	}
	n := uint64(len(s))
	return Digest{mix64(a ^ n), mix64(b + n)}
}

// SymMultiset is a multiset over interned symbols: a dense count vector
// with an incrementally-maintained canonical Digest. The zero value is an
// empty multiset.
type SymMultiset struct {
	counts []int32
	size   int
	dig    Digest
}

// NewSymMultiset returns an empty multiset sized for n symbols.
func NewSymMultiset(n int) SymMultiset {
	return SymMultiset{counts: make([]int32, n)}
}

// grow ensures the count vector covers symbol s.
func (m *SymMultiset) grow(s Sym) {
	for int(s) >= len(m.counts) {
		m.counts = append(m.counts, 0)
	}
}

// Count returns the multiplicity of s.
func (m *SymMultiset) Count(s Sym) int {
	if int(s) >= len(m.counts) {
		return 0
	}
	return int(m.counts[s])
}

// Add adjusts the multiplicity of s by n (n may be negative; it panics if
// the multiplicity would become negative, which indicates a bookkeeping
// bug in the caller).
func (m *SymMultiset) Add(s Sym, n int) {
	if n == 0 {
		return
	}
	m.grow(s)
	old := int(m.counts[s])
	c := old + n
	if c < 0 {
		panic("trace: symbol multiset multiplicity became negative")
	}
	if old > 0 {
		m.dig = m.dig.Sub(HashCount(s, old))
	}
	if c > 0 {
		m.dig = m.dig.Add(HashCount(s, c))
	}
	m.counts[s] = int32(c)
	m.size += n
}

// Size returns the total number of occurrences.
func (m *SymMultiset) Size() int { return m.size }

// Digest returns the canonical digest of the multiset's contents.
func (m *SymMultiset) Digest() Digest { return m.dig }

// NumSyms returns the length of the count vector (an upper bound on
// symbols with non-zero multiplicity; iterate 0..NumSyms and test Count).
func (m *SymMultiset) NumSyms() int { return len(m.counts) }

// Clone returns an independent copy of m.
func (m *SymMultiset) Clone() SymMultiset {
	c := *m
	c.counts = make([]int32, len(m.counts))
	copy(c.counts, m.counts)
	return c
}

// CopyFrom overwrites m with the contents of o, reusing m's count vector
// when it is large enough (the allocation-free reset used by checker hot
// paths).
func (m *SymMultiset) CopyFrom(o *SymMultiset) {
	if cap(m.counts) < len(o.counts) {
		m.counts = make([]int32, len(o.counts))
	}
	m.counts = m.counts[:len(o.counts)]
	copy(m.counts, o.counts)
	m.size = o.size
	m.dig = o.dig
}

// SubsetOf reports whether every multiplicity in m is at most that in o.
func (m *SymMultiset) SubsetOf(o *SymMultiset) bool {
	for s, c := range m.counts {
		if c > 0 && int(c) > o.Count(Sym(s)) {
			return false
		}
	}
	return true
}

// SubtractAll removes every occurrence counted by o from m; the caller
// guarantees o ⊆ m (Add panics otherwise).
func (m *SymMultiset) SubtractAll(o *SymMultiset) {
	for s, c := range o.counts {
		if c > 0 {
			m.Add(Sym(s), -int(c))
		}
	}
}

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
// mutation. Position parameters are mixed into each component's hash,
// so reorderings hash differently wherever order matters.
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

// HashElem hashes a (position, symbol) chain element: the component the
// frontier engine's ordered identity sums over a chain's appends
// (DESIGN.md, decision 31), so reorderings hash differently.
func HashElem(pos int, s Sym) Digest {
	return hash2(uint64(pos)<<34 | uint64(s)<<1)
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
// placed sets fold it into their memo keys). The high tag bit
// separates the component space from HashElem.
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

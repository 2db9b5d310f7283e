package trace

// SymCount is one (symbol, multiplicity) entry of a SparseMultiset.
type SymCount struct {
	Sym Sym
	N   int32
}

// SparseMultiset is a multiset over interned symbols stored as its
// non-zero (symbol, multiplicity) entries in ascending symbol order. It
// carries the same canonical Digest as a SymMultiset of equal contents
// (the sum of HashCount over the non-zero entries), but every operation
// costs a function of the number of distinct symbols held, never of how
// many symbols the interner has assigned: the streaming frontier engine
// keeps its open-operation sets in it (DESIGN.md, decision 19), where
// the symbol space grows with the history and the sets do not. The zero
// value is an empty multiset.
type SparseMultiset struct {
	ents []SymCount
	size int
	dig  Digest
}

// find returns the index of s's entry, or the index it would be inserted
// at and false.
func (m *SparseMultiset) find(s Sym) (int, bool) {
	lo, hi := 0, len(m.ents)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.ents[mid].Sym < s {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(m.ents) && m.ents[lo].Sym == s
}

// Count returns the multiplicity of s.
func (m *SparseMultiset) Count(s Sym) int {
	if i, ok := m.find(s); ok {
		return int(m.ents[i].N)
	}
	return 0
}

// Add adjusts the multiplicity of s by n (n may be negative; it panics if
// the multiplicity would become negative, which indicates a bookkeeping
// bug in the caller).
func (m *SparseMultiset) Add(s Sym, n int) {
	if n == 0 {
		return
	}
	i, ok := m.find(s)
	old := 0
	if ok {
		old = int(m.ents[i].N)
	}
	c := old + n
	if c < 0 {
		panic("trace: sparse multiset multiplicity became negative")
	}
	if old > 0 {
		m.dig = m.dig.Sub(HashCount(s, old))
	}
	if c > 0 {
		m.dig = m.dig.Add(HashCount(s, c))
	}
	switch {
	case c == 0:
		m.ents = append(m.ents[:i], m.ents[i+1:]...)
	case ok:
		m.ents[i].N = int32(c)
	default:
		m.ents = append(m.ents, SymCount{})
		copy(m.ents[i+1:], m.ents[i:])
		m.ents[i] = SymCount{Sym: s, N: int32(c)}
	}
	m.size += n
}

// Size returns the total number of occurrences.
func (m *SparseMultiset) Size() int { return m.size }

// Digest returns the canonical digest of the multiset's contents.
func (m *SparseMultiset) Digest() Digest { return m.dig }

// Set overwrites m with the contents of o, reusing m's entry storage when
// it is large enough.
func (m *SparseMultiset) Set(o *SparseMultiset) {
	m.ents = append(m.ents[:0], o.ents...)
	m.size = o.size
	m.dig = o.dig
}

// AppendDiff appends the non-zero entries of m − o to dst, in ascending
// symbol order, and returns the extended slice; the caller guarantees
// o ⊆ m (it panics otherwise).
func (m *SparseMultiset) AppendDiff(dst []SymCount, o *SparseMultiset) []SymCount {
	j := 0
	for _, e := range m.ents {
		if j < len(o.ents) && o.ents[j].Sym == e.Sym {
			e.N -= o.ents[j].N
			j++
		}
		if e.N < 0 {
			panic("trace: sparse multiset difference became negative")
		}
		if e.N > 0 {
			dst = append(dst, e)
		}
	}
	if j < len(o.ents) { // a symbol of o that m does not hold
		panic("trace: sparse multiset difference became negative")
	}
	return dst
}

package trace

// SymCount is one (symbol, multiplicity) entry of a SparseMultiset.
type SymCount struct {
	Sym Sym
	N   int32
}

// SparseMultiset is a multiset over interned symbols stored as its
// non-zero (symbol, multiplicity) entries in ascending symbol order, so
// every operation costs a function of the number of distinct symbols
// held, never of how many symbols the interner has assigned: the
// streaming frontier engine keeps its pending inputs in it (DESIGN.md,
// decision 19), where the symbol space grows with the history and the
// set does not. The zero value is an empty multiset.
type SparseMultiset struct {
	ents []SymCount
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

// Add adjusts the multiplicity of s by n (n may be negative; it panics if
// the multiplicity would become negative, which indicates a bookkeeping
// bug in the caller).
func (m *SparseMultiset) Add(s Sym, n int) {
	i, ok := m.find(s)
	c := n
	if ok {
		c += int(m.ents[i].N)
	}
	switch {
	case c < 0:
		panic("trace: sparse multiset multiplicity became negative")
	case ok && c == 0:
		m.ents = append(m.ents[:i], m.ents[i+1:]...)
	case ok:
		m.ents[i].N = int32(c)
	case c > 0:
		m.ents = append(m.ents, SymCount{})
		copy(m.ents[i+1:], m.ents[i:])
		m.ents[i] = SymCount{Sym: s, N: int32(c)}
	}
}

// AppendDiff appends the non-zero entries of m minus the occurrences
// listed in syms (ascending, repeats adjacent) to dst, in ascending
// symbol order, and returns the extended slice; the caller guarantees
// that m holds every listed occurrence (it panics otherwise).
func (m *SparseMultiset) AppendDiff(dst []SymCount, syms []Sym) []SymCount {
	j := 0
	for _, e := range m.ents {
		for ; j < len(syms) && syms[j] == e.Sym; j++ {
			e.N--
		}
		if e.N < 0 {
			panic("trace: sparse multiset difference became negative")
		}
		if e.N > 0 {
			dst = append(dst, e)
		}
	}
	if j < len(syms) { // an occurrence m does not hold
		panic("trace: sparse multiset difference became negative")
	}
	return dst
}

package trace

// ChainPrefix is an immutable summary of a commit chain's compacted
// prefix — the slin streaming frontier engine's bounded-memory
// representation (DESIGN.md, decision 17; lin.Session stores no claimed
// entry at all, decision 20). A frontier configuration whose leading chain
// entries can never be touched again (every one is claimed, and the lin
// transition relation only flips unused marks or appends) drops their
// per-entry storage and keeps this summary instead:
//
//   - N fixes the absolute position of every retained suffix entry, so
//     appends keep hashing HashElem at their true chain positions;
//   - Elems keeps the availability derivation exact (available inputs =
//     invoked − prefix elements − suffix elements);
//   - Dig is the lane-wise sum of the dropped entries' HashElem
//     components. Because a chain digest is a commutative sum of
//     per-position components, the full-chain digest — the memo identity
//     — is recoverable as Dig plus the suffix components: compaction
//     changes the representation of a configuration, never its identity.
//
// Vals retains the dropped inputs themselves: abort discharge and witness
// assembly reconstruct full chain histories.
//
// Summaries are shared: configurations with a common compacted prefix
// point at one ChainPrefix, and further compaction builds a new summary
// rather than mutating a shared one.
type ChainPrefix struct {
	// N is the number of chain entries summarized away; suffix index k
	// corresponds to absolute chain position N + k.
	N int
	// Elems is the multiset of the dropped entries' input symbols.
	Elems SymMultiset
	// Dig is the digest contribution of the dropped entries (the sum of
	// their HashElem components at their absolute positions and final
	// claimed flags).
	Dig Digest
	// Vals holds the dropped inputs in chain order (len(Vals) == N).
	Vals []Value
}

// Len returns the number of summarized entries; a nil prefix is empty.
func (p *ChainPrefix) Len() int {
	if p == nil {
		return 0
	}
	return p.N
}

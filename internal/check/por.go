package check

import (
	"math/bits"

	"repro/internal/adt"
	"repro/internal/trace"
)

// This file implements the partial-order reduction (POR) vocabulary of
// the lin/slin search engines (DESIGN.md, decision 12): a state-dependent
// independence relation between candidate chain-extension inputs, and the
// sleep sets that prune commuting extension orders so each commuting pair
// is explored in only one order.
//
// Two extension inputs are independent at a chain state when appending
// them in either order reaches the same state AND leaves each input's
// output unchanged — "non-conflicting commit-chain effects". The output
// conditions matter beyond plain state commutation: a chain prefix is
// claimable by a response exactly when its end element carries the
// response's (input, output) pair, so swapping two appended elements must
// preserve the (symbol, output) labelling of every prefix end for the
// claim bijection of decision 12 to exist. Under that relation, swapping
// two adjacent independent elements yields a chain with the same end
// state, the same element multiset and a claimable-prefix set that is a
// bijection preserving end symbols and outputs — which is exactly why
// witnesses survive the reduction.

// Independent reports whether inputs a and b commute at chain state st
// under folder f: appending them in either order reaches the same state,
// and neither changes the other's output. It is irreflexive by
// convention (a branch set never contains the same symbol twice, so
// reflexivity is never consulted); callers pass distinct inputs.
func Independent(f adt.Folder, st adt.State, a, b trace.Value) bool {
	sa := f.Step(st, a)
	sb := f.Step(st, b)
	if f.Step(sa, b) != f.Step(sb, a) {
		return false
	}
	return f.Out(st, a) == f.Out(sb, a) && f.Out(st, b) == f.Out(sa, b)
}

// FilterIndependent keeps the sleeping symbols that are independent with
// the branch input `in` at chain state st — the sleep set a child node
// inherits after its parent appends `in` (Godefroid's conditional sleep
// set propagation). Dependent symbols wake up: extension orders putting
// them after `in` are genuinely different and must be explored.
//
// stIn and outIn are f.Step(st, in) and f.Out(st, in), precomputed by
// the caller: every branch site needs the pair anyway to push `in` onto
// its chain (the push-variant chain APIs take it), so threading it here
// inlines Independent with the branch-constant folder calls hoisted AND
// stops the reduced searches computing the pair twice per branch — this
// runs at every non-pruned branch of the search hot paths.
func (s SleepSet) FilterIndependent(f adt.Folder, it *trace.Interner, st adt.State, in trace.Value, stIn adt.State, outIn trace.Value) SleepSet {
	if s.Empty() {
		return SleepSet{}
	}
	var out SleepSet
	keep := func(sym trace.Sym) bool {
		a := it.Value(sym)
		sa := f.Step(st, a)
		return f.Step(sa, in) == f.Step(stIn, a) &&
			f.Out(st, a) == f.Out(stIn, a) && outIn == f.Out(sa, in)
	}
	for rest := s.lo; rest != 0; rest &= rest - 1 {
		sym := trace.Sym(bits.TrailingZeros64(rest))
		if keep(sym) {
			out.lo |= 1 << sym
		}
	}
	// The surviving spill list is fresh (never shared), so it is built in
	// place and stays nil when no high symbol survived.
	for i, sym := range s.hi {
		if keep(sym) {
			if out.hi == nil {
				out.hi = make([]trace.Sym, 0, len(s.hi)-i)
			}
			out.hi = append(out.hi, sym)
		}
	}
	return out
}

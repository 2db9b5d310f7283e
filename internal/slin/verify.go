package slin

import (
	"fmt"
	"sort"

	"repro/internal/adt"
	"repro/internal/trace"
)

// VerifyWitness checks a Witness against Definitions 17–32 directly,
// independently of the search that produced it. temporal selects the
// weakened Abort-Order of Options.TemporalAbortOrder; witnesses produced
// under one semantics must be verified under the same one.
//
// Tests use this to validate the checker: every positive verdict's
// witnesses must verify, making the searcher and the definitions check
// each other.
func VerifyWitness(f adt.Folder, rinit RInit, m, n int, t trace.Trace, w Witness, temporal bool) error {
	if !t.PhaseWellFormed(m, n) {
		return fmt.Errorf("slin: witness for ill-formed trace")
	}

	// Definitions 17–18: interpretations respect r_init.
	for i, a := range t {
		switch {
		case a.IsInit(m) && m != 1:
			h, ok := w.Init[i]
			if !ok {
				return fmt.Errorf("slin: no init interpretation for index %d", i)
			}
			if !rinit.Admits(a.SwitchValue, h) {
				return fmt.Errorf("slin: init history %v not admitted for value %q", h, a.SwitchValue)
			}
		case a.IsAbort(n):
			h, ok := w.Aborts[i]
			if !ok {
				return fmt.Errorf("slin: no abort interpretation for index %d", i)
			}
			if !rinit.Admits(a.SwitchValue, h) {
				return fmt.Errorf("slin: abort history %v not admitted for value %q", h, a.SwitchValue)
			}
		}
	}

	// vi(m, t, finit, i) per Definitions 25–26.
	vi := make([]trace.Multiset, len(t)+1)
	ivi, invoked := trace.Multiset{}, trace.Multiset{}
	vi[0] = ivi.Sum(invoked)
	for i, a := range t {
		switch {
		case a.Kind == trace.Inv:
			invoked = invoked.Clone()
			invoked.Add(a.Input, 1)
		case a.IsInit(m) && m != 1:
			ivi = ivi.Union(w.Init[i].Elems().Union(trace.NewMultiset(a.Input)))
		}
		vi[i+1] = ivi.Sum(invoked)
	}

	// Explains (Definition 21) and Validity for commits (Definition 27).
	var commits []int
	for i, a := range t {
		if a.Kind != trace.Res {
			continue
		}
		commits = append(commits, i)
		g, ok := w.Commits[i]
		if !ok {
			return fmt.Errorf("slin: no commit history for response index %d", i)
		}
		out, err := f.Apply(g)
		if err != nil {
			return err
		}
		if out != a.Output {
			return fmt.Errorf("slin: index %d: %v explains %q, trace has %q", i, g, out, a.Output)
		}
		if len(g) == 0 || g.Last() != a.Input {
			return fmt.Errorf("slin: index %d: commit history does not end with %q", i, a.Input)
		}
		if !g.Elems().SubsetOf(vi[i]) {
			return fmt.Errorf("slin: index %d: commit history %v exceeds valid inputs", i, g)
		}
	}

	// Validity for aborts (Definition 28).
	var aborts []int
	for i, a := range t {
		if !a.IsAbort(n) {
			continue
		}
		aborts = append(aborts, i)
		h := w.Aborts[i]
		if !h.Elems().Union(trace.NewMultiset(a.Input)).SubsetOf(vi[i]) {
			return fmt.Errorf("slin: index %d: abort history %v ∪ {%s} exceeds valid inputs", i, h, a.Input)
		}
	}

	// Commit-Order (Definition 30). Strict-prefix order is transitive, so
	// the histories are totally ordered by it exactly when, sorted by
	// length, each is a strict prefix of the next.
	byLen := append([]int(nil), commits...)
	sort.Slice(byLen, func(x, y int) bool { return len(w.Commits[byLen[x]]) < len(w.Commits[byLen[y]]) })
	for x := 1; x < len(byLen); x++ {
		gi, gj := w.Commits[byLen[x-1]], w.Commits[byLen[x]]
		if !gi.IsStrictPrefixOf(gj) {
			return fmt.Errorf("slin: commit histories %v and %v not strict-prefix ordered", gi, gj)
		}
	}

	// Init-Order (Definition 31); skipped for m == 1 (note after Def. 32).
	if m != 1 {
		var inits []trace.History
		for _, h := range w.Init {
			inits = append(inits, h)
		}
		L := trace.LCP(inits)
		for _, i := range commits {
			if !L.IsStrictPrefixOf(w.Commits[i]) {
				return fmt.Errorf("slin: init LCP %v not a strict prefix of commit %v", L, w.Commits[i])
			}
		}
		for _, i := range aborts {
			if !L.IsStrictPrefixOf(w.Aborts[i]) {
				return fmt.Errorf("slin: init LCP %v not a strict prefix of abort %v", L, w.Aborts[i])
			}
		}
	}

	// Abort-Order (Definition 32), literal or temporal.
	for _, ai := range aborts {
		for _, ci := range commits {
			if temporal && ci > ai {
				continue
			}
			if !w.Commits[ci].IsPrefixOf(w.Aborts[ai]) {
				return fmt.Errorf("slin: commit %v not a prefix of abort %v", w.Commits[ci], w.Aborts[ai])
			}
		}
	}
	return nil
}

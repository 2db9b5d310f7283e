// Package slin decides speculative linearizability of traces: the
// SLin_T(m,n) trace property of Section 5 of the paper.
//
// A trace in sig_T(m, n, Init) is (m,n)-speculatively linearizable
// (Definition 19) iff it is (m,n)-well-formed and, for every
// interpretation f_init of its init actions, there exist an interpretation
// f_abort of its abort actions and a speculative linearization function g
// such that g explains the trace and the Validity, Commit-Order,
// Init-Order and Abort-Order predicates hold (Definitions 20–32).
//
// The universal quantifier over interpretations is instantiated over a
// finite generating set of representatives supplied by the RInit relation
// (see DESIGN.md, substitution 4); the existential quantifier over abort
// interpretations searches the full relation through its membership
// predicate.
package slin

import (
	"strings"

	"repro/internal/adt"
	"repro/internal/trace"
)

// RInit is the relation r_init ⊆ Init × I_T* agreed on by all speculation
// phases of an object (§5.2). It associates each switch value with its set
// of possible interpretations: input histories representing possible
// linearizations of the aborting phase's execution.
type RInit interface {
	// Representatives returns a finite, non-empty generating set of the
	// interpretations of v, used to instantiate the universal quantifier
	// over init interpretations. Larger sets give stronger checks.
	Representatives(v trace.Value) []trace.History
	// Admits reports whether h ∈ r_init(v); it defines the search space
	// for the existential choice of abort interpretations.
	Admits(v trace.Value, h trace.History) bool
}

// OrderInsensitive is an optional declaration an RInit can make about
// its Admits predicate: Admits(v, h) depends on h only through its folded
// state under the checked folder and its element multiset. Abort
// discharge is then blind to chain order, so the session keeps its
// position-free identity (DESIGN.md, decision 29) on abort-carrying
// traces, under either Abort-Order reading; otherwise it keys
// configurations by chain position from the first abort on. A wrong
// declaration makes the search unsound; the tests cross-check both
// identities on abort-carrying traces.
type OrderInsensitive interface {
	// AdmitsOrderInsensitive reports that Admits depends on a history
	// only through its folded state and its element multiset.
	AdmitsOrderInsensitive() bool
}

// IsOrderInsensitive reports whether r declares its Admits predicate
// order-insensitive (see OrderInsensitive).
func IsOrderInsensitive(r RInit) bool {
	oi, ok := r.(OrderInsensitive)
	return ok && oi.AdmitsOrderInsensitive()
}

// ConsensusRInit is the mapping used by the paper's consensus case studies
// (§2.4): a switch value v is interpreted by the histories that start with
// the proposal p(v) and contain only proposals.
//
// The paper's flavour text additionally excludes the switching client's
// own invocations from the interpretations; histories in this codebase are
// attribution-free input sequences, so the relation here is the value-level
// projection of the paper's (the composition theorem is parametric in
// r_init, so any agreed-on relation is a valid instantiation).
type ConsensusRInit struct {
	// Probe, when true, adds a second representative [p(v), p(probe)]
	// with a synthetic probe proposal to each value's generating set,
	// exercising interpretations longer than the minimal one.
	Probe bool
}

var _ RInit = ConsensusRInit{}

// ProbeValue is the synthetic proposal value used by Probe representatives.
const ProbeValue = "«probe»"

// InitTag is the occurrence tag carried by proposals inside representative
// interpretations, distinguishing them from the trace's own invocations
// (the paper's interpretations contain invocations "from other clients").
const InitTag = "init"

// Representatives implements RInit.
func (r ConsensusRInit) Representatives(v trace.Value) []trace.History {
	min := trace.History{adt.Tag(adt.ProposeInput(v), InitTag)}
	if !r.Probe {
		return []trace.History{min}
	}
	return []trace.History{min, min.Append(adt.Tag(adt.ProposeInput(ProbeValue), InitTag))}
}

// AdmitsOrderInsensitive implements OrderInsensitive: Admits examines
// only the all-proposals property, a function of the element multiset,
// and the untagged first element, which on an all-proposals history is
// the value its consensus state has decided.
func (ConsensusRInit) AdmitsOrderInsensitive() bool { return true }

// Admits implements RInit: h starts with a proposal of v (any occurrence
// tag) and contains only proposals.
func (ConsensusRInit) Admits(v trace.Value, h trace.History) bool {
	if len(h) == 0 || adt.Untag(h[0]) != adt.ProposeInput(v) {
		return false
	}
	for _, in := range h {
		if _, ok := adt.ProposalOf(adt.Untag(in)); !ok {
			return false
		}
	}
	return true
}

// UniversalRInit is the relation of §6: switch values are encoded
// histories and r_init maps a history h to the singleton set {h}.
type UniversalRInit struct{}

var _ RInit = UniversalRInit{}

// EncodeHistory encodes a history as a switch value for UniversalRInit.
func EncodeHistory(h trace.History) trace.Value { return adt.HistoryOutput(h) }

// DecodeHistory decodes a switch value produced by EncodeHistory.
func DecodeHistory(v trace.Value) (trace.History, bool) { return adt.OutputHistory(v) }

// Representatives implements RInit.
func (UniversalRInit) Representatives(v trace.Value) []trace.History {
	h, ok := DecodeHistory(v)
	if !ok {
		return nil
	}
	return []trace.History{h}
}

// Admits implements RInit.
func (UniversalRInit) Admits(v trace.Value, h trace.History) bool {
	want, ok := DecodeHistory(v)
	return ok && want.Equal(h)
}

// PrefixRInit interprets a switch value encoding a history h as the set of
// all histories extending h. It exercises non-singleton infinite
// interpretation sets in tests.
type PrefixRInit struct{}

var _ RInit = PrefixRInit{}

// Representatives implements RInit: the minimal interpretation {h}.
func (PrefixRInit) Representatives(v trace.Value) []trace.History {
	h, ok := DecodeHistory(v)
	if !ok {
		return nil
	}
	return []trace.History{h}
}

// Admits implements RInit.
func (PrefixRInit) Admits(v trace.Value, h trace.History) bool {
	base, ok := DecodeHistory(v)
	return ok && base.IsPrefixOf(h)
}

// historyKey canonically encodes a history for use in memoization keys.
func historyKey(h trace.History) string {
	var b strings.Builder
	for _, v := range h {
		b.WriteString(v)
		b.WriteByte('\x00')
	}
	return b.String()
}

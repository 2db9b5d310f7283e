// Package adt implements abstract data types in the style of Definition 4
// of the paper: an ADT is a set of inputs I_T, a disjoint set of outputs
// O_T, and an output function f_T : I_T* → O_T that determines the output
// of the last input of a history. Computing the output function amounts to
// replaying the sequential execution of a state-machine description (§4.1).
//
// Inputs and outputs are trace.Value strings with small prefixed grammars
// per ADT (for example the consensus ADT uses inputs "p:v" and outputs
// "d:v", mirroring the paper's p(v)/d(v) shorthand).
//
// Every ADT in this package also implements Folder, which exposes the
// underlying state machine: Fold collapses a history into a canonical state
// so that checkers can memoize on states instead of histories (DESIGN.md,
// decision 2).
package adt

import (
	"fmt"
	"strings"

	"repro/internal/trace"
)

// ADT describes an abstract data type by its output function.
type ADT interface {
	// Name identifies the data type ("consensus", "register", ...).
	Name() string
	// ValidInput reports whether in belongs to I_T.
	ValidInput(in trace.Value) bool
	// Apply computes f_T(h): the output of the last input of the
	// non-empty history h. It returns an error if h is empty or contains
	// an input outside I_T.
	Apply(h trace.History) (trace.Value, error)
}

// State is a canonical, comparable encoding of the logical state reached by
// a history. Histories that are equivalent with respect to the data type
// (§2.3) fold to equal states.
type State string

// Folder is an ADT whose histories can be folded into canonical states.
// For every history h and input in:
//
//	Apply(h ++ [in]) == Out(Fold(h), in)   and
//	Fold(h ++ [in])  == Step(Fold(h), in).
//
// Checkers exploit this to memoize search on (state, pending-inputs)
// instead of full histories.
//
// Step and Out must be pure: equal (s, in) always get equal answers, and
// a call has no effect a later call could observe. The frontier engine
// relies on it, asking the folder once per (state, input) pair and
// reusing the answer (DESIGN.md, decision 32).
type Folder interface {
	ADT
	// Empty returns the state of the empty history.
	Empty() State
	// Step returns the state after applying input in to state s.
	Step(s State, in trace.Value) State
	// Out returns the output produced by applying input in to state s.
	Out(s State, in trace.Value) trace.Value
}

// Fold folds a whole history using f's state machine.
func Fold(f Folder, h trace.History) State {
	s := f.Empty()
	for _, in := range h {
		s = f.Step(s, in)
	}
	return s
}

// ApplyFolded computes Apply via the state machine; all Folder ADTs in this
// package define Apply in terms of it.
func ApplyFolded(f Folder, h trace.History) (trace.Value, error) {
	if len(h) == 0 {
		return "", fmt.Errorf("adt: %s: output function applied to empty history", f.Name())
	}
	s := f.Empty()
	for _, in := range h[:len(h)-1] {
		if !f.ValidInput(in) {
			return "", fmt.Errorf("adt: %s: invalid input %q", f.Name(), in)
		}
		s = f.Step(s, in)
	}
	last := h[len(h)-1]
	if !f.ValidInput(last) {
		return "", fmt.Errorf("adt: %s: invalid input %q", f.Name(), last)
	}
	return f.Out(s, last), nil
}

// split2 splits "op:arg" into its operation and argument; ok is false when
// no colon is present.
func split2(v trace.Value) (op, arg string, ok bool) {
	i := strings.IndexByte(v, ':')
	if i < 0 {
		return v, "", false
	}
	return v[:i], v[i+1:], true
}

// TagSep separates an input from its occurrence tag. Tags identify
// invocation occurrences — the paper's definitions are sensitive to
// repeated events (identical inputs from different invocations), and its
// case studies implicitly distinguish occurrences by the invoking client.
// A tag never affects ADT semantics: Step, Out and ValidInput strip it.
const TagSep = "⋕"

// Tag attaches an occurrence tag to an input.
func Tag(in trace.Value, tag string) trace.Value { return in + TagSep + tag }

// Untag strips the occurrence tag, if any, returning the semantic input.
func Untag(in trace.Value) trace.Value {
	if i := strings.Index(in, TagSep); i >= 0 {
		return in[:i]
	}
	return in
}

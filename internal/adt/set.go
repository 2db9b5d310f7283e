package adt

import (
	"strings"

	"repro/internal/trace"
)

// Set is a mathematical-set ADT, the spec behind the capture harness's
// lazy-list set reference structure (the Lazy Set of PAPERS.md, whose
// non-fixed linearization points are exactly what the exact search
// engines handle and the fast paths do not). Inputs are "add:v",
// "rm:v" and "has:v"; outputs are "b:1"/"b:0" — whether the add newly
// inserted, the remove actually removed, or the membership test found
// the element.
type Set struct{}

var _ Folder = Set{}

// AddInput returns the input add(v).
func AddInput(v trace.Value) trace.Value { return "add:" + v }

// RemoveInput returns the input remove(v).
func RemoveInput(v trace.Value) trace.Value { return "rm:" + v }

// HasInput returns the input contains(v).
func HasInput(v trace.Value) trace.Value { return "has:" + v }

// BoolOutput returns the boolean output of a set operation.
func BoolOutput(b bool) trace.Value {
	if b {
		return "b:1"
	}
	return "b:0"
}

// Name implements ADT.
func (Set) Name() string { return "set" }

// ValidInput implements ADT.
func (Set) ValidInput(in trace.Value) bool {
	op, arg, has := split2(Untag(in))
	if !has {
		return false
	}
	switch op {
	case "add", "rm", "has":
		return arg != "" && arg != string(Bottom) && !strings.ContainsRune(arg, '\x00')
	default:
		return false
	}
}

// The set state is the sorted distinct elements joined by NUL bytes; the
// empty set is the empty state. Step and Out read it in place: Out
// allocates nothing and Step one string, and only when the set changes.

// Empty implements Folder.
func (Set) Empty() State { return "" }

// setFind returns the byte offset in s of element arg, or of the element
// arg would be inserted before (len(s) if none), and whether s holds arg.
func setFind(s State, arg string) (at int, ok bool) {
	for at < len(s) {
		end := strings.IndexByte(string(s[at:]), 0)
		if end < 0 {
			end = len(s) - at
		}
		switch elem := string(s[at : at+end]); {
		case elem == arg:
			return at, true
		case elem > arg:
			return at, false
		}
		at += end + 1
	}
	return len(s), false
}

// Step implements Folder.
func (Set) Step(s State, in trace.Value) State {
	op, arg, _ := split2(Untag(in))
	at, ok := setFind(s, arg)
	switch {
	case op == "add" && !ok:
		switch {
		case s == "":
			return State(arg)
		case at == len(s):
			return s + "\x00" + State(arg)
		}
		return s[:at] + State(arg) + "\x00" + s[at:]
	case op == "rm" && ok:
		end := at + len(arg)
		switch {
		case end < len(s):
			return s[:at] + s[end+1:]
		case at > 0:
			return s[:at-1]
		}
		return ""
	}
	return s
}

// Out implements Folder.
func (Set) Out(s State, in trace.Value) trace.Value {
	op, arg, _ := split2(Untag(in))
	_, ok := setFind(s, arg)
	if op == "add" {
		return BoolOutput(!ok)
	}
	return BoolOutput(ok)
}

// Apply implements ADT.
func (s Set) Apply(h trace.History) (trace.Value, error) {
	return ApplyFolded(s, h)
}

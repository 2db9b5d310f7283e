package adt

import (
	"strings"

	"repro/internal/trace"
)

// Stack is a LIFO stack ADT, the second multi-shot container after the
// queue. Inputs are "push:v" and "pop:"; a push outputs "ok:", a pop
// outputs "v:x" for the removed top element or "v:⊥" on empty.
type Stack struct{}

var _ Folder = Stack{}

// PushInput returns the input push(v).
func PushInput(v trace.Value) trace.Value { return "push:" + v }

// PopInput returns the pop input.
func PopInput() trace.Value { return "pop:" }

// Name implements ADT.
func (Stack) Name() string { return "stack" }

// ValidInput implements ADT.
func (Stack) ValidInput(in trace.Value) bool {
	op, arg, has := split2(Untag(in))
	if !has {
		return false
	}
	switch op {
	case "push":
		return arg != "" && arg != string(Bottom) && !strings.ContainsRune(arg, '\x00')
	case "pop":
		return arg == ""
	default:
		return false
	}
}

// The stack state is the elements joined by NUL bytes, top last; the
// empty stack is the empty state (the queue's encoding, read in place
// from the other end).

// Empty implements Folder.
func (Stack) Empty() State { return "" }

// Step implements Folder.
func (Stack) Step(s State, in trace.Value) State {
	op, arg, _ := split2(Untag(in))
	switch op {
	case "push":
		return appendElem(s, arg)
	case "pop":
		if i := strings.LastIndexByte(string(s), 0); i >= 0 {
			return s[:i]
		}
		return ""
	}
	return s
}

// Out implements Folder.
func (Stack) Out(s State, in trace.Value) trace.Value {
	op, _, _ := split2(Untag(in))
	switch {
	case op == "push":
		return WriteOutput()
	case s == "":
		return emptyOutput
	}
	return ReadOutput(trace.Value(s[strings.LastIndexByte(string(s), 0)+1:]))
}

// Apply implements ADT.
func (s Stack) Apply(h trace.History) (trace.Value, error) {
	return ApplyFolded(s, h)
}

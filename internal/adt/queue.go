package adt

import (
	"strings"

	"repro/internal/trace"
)

// Queue is a FIFO queue ADT, included to exercise the framework on a
// multi-shot data type whose state does not collapse to a single value.
// Inputs are "enq:v" and "deq:"; an enqueue outputs "ok:", a dequeue
// outputs "v:x" for the removed front element or "v:⊥" on empty.
type Queue struct{}

var _ Folder = Queue{}

// EnqInput returns the input enqueue(v).
func EnqInput(v trace.Value) trace.Value { return "enq:" + v }

// DeqInput returns the dequeue input.
func DeqInput() trace.Value { return "deq:" }

// Name implements ADT.
func (Queue) Name() string { return "queue" }

// ValidInput implements ADT.
func (Queue) ValidInput(in trace.Value) bool {
	op, arg, has := split2(Untag(in))
	if !has {
		return false
	}
	switch op {
	case "enq":
		return arg != "" && arg != string(Bottom) && !strings.ContainsRune(arg, '\x00')
	case "deq":
		return arg == ""
	default:
		return false
	}
}

// The queue state is the remaining elements joined by NUL bytes, the
// front first; the empty queue is the empty state. Step and Out read it
// in place: an enqueue appends one element, a dequeue cuts at the first
// NUL, and the front is the state up to it.

// Empty implements Folder.
func (Queue) Empty() State { return "" }

// emptyOutput is a dequeue's or pop's output on an empty container, a
// constant so that reading it allocates nothing.
const emptyOutput = "v:" + Bottom

// appendElem appends element v to a NUL-joined state.
func appendElem(s State, v string) State {
	if s == "" {
		return State(v)
	}
	return s + "\x00" + State(v)
}

// Step implements Folder.
func (Queue) Step(s State, in trace.Value) State {
	op, arg, _ := split2(Untag(in))
	switch op {
	case "enq":
		return appendElem(s, arg)
	case "deq":
		if i := strings.IndexByte(string(s), 0); i >= 0 {
			return s[i+1:]
		}
		return ""
	}
	return s
}

// Out implements Folder.
func (Queue) Out(s State, in trace.Value) trace.Value {
	op, _, _ := split2(Untag(in))
	switch {
	case op == "enq":
		return WriteOutput()
	case s == "":
		return emptyOutput
	}
	if i := strings.IndexByte(string(s), 0); i >= 0 {
		s = s[:i]
	}
	return ReadOutput(trace.Value(s))
}

// Apply implements ADT.
func (q Queue) Apply(h trace.History) (trace.Value, error) {
	return ApplyFolded(q, h)
}

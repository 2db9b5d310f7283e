package adt

import (
	"strings"

	"repro/internal/trace"
)

// Universal is the universal ADT of §6: its output function is the
// identity — an operation's output is the full input history so far, as a
// single encoded value. Given a linearizable implementation of Universal,
// applying any other ADT's output function to its responses yields an
// implementation of that ADT, which is why it abstracts generic state
// machine replication protocols.
//
// Inputs are arbitrary non-empty values not containing the 0x1f separator;
// outputs are "h:" followed by the 0x1f-joined history.
type Universal struct{}

var _ Folder = Universal{}

const universalSep = "\x1f"

// Name implements ADT.
func (Universal) Name() string { return "universal" }

// ValidInput implements ADT.
func (Universal) ValidInput(in trace.Value) bool {
	return in != "" && !strings.Contains(in, universalSep) && !strings.HasPrefix(in, "h:")
}

// HistoryOutput encodes history h as a universal-ADT output.
func HistoryOutput(h trace.History) trace.Value {
	var b strings.Builder
	b.WriteString("h:")
	for i, v := range h {
		if i > 0 {
			b.WriteString(universalSep)
		}
		b.WriteString(v)
	}
	return b.String()
}

// OutputHistory decodes a universal-ADT output back into a history; ok is
// false for values that are not universal outputs.
func OutputHistory(out trace.Value) (trace.History, bool) {
	rest, found := strings.CutPrefix(out, "h:")
	if !found {
		return nil, false
	}
	if rest == "" {
		return trace.History{}, true
	}
	return trace.History(strings.Split(rest, universalSep)), true
}

// Empty implements Folder: the state is the encoded history itself.
func (Universal) Empty() State { return State(HistoryOutput(nil)) }

// Step implements Folder.
func (u Universal) Step(s State, in trace.Value) State { return State(u.Out(s, in)) }

// Out implements Folder: in appended to the encoded history where it
// lies, in one allocation. A state that is no universal output reads as
// the empty history.
func (Universal) Out(s State, in trace.Value) trace.Value {
	if rest, ok := strings.CutPrefix(string(s), "h:"); ok && rest != "" {
		return string(s) + universalSep + in
	}
	return "h:" + in
}

// Apply implements ADT.
func (u Universal) Apply(h trace.History) (trace.Value, error) {
	return ApplyFolded(u, h)
}

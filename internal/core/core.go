// Package core is the executable heart of the paper's framework: it
// composes independently devised speculation phases into a single
// linearizable object (§2.3, §5.1).
//
// A Phase is a black-box implementation of one speculation phase. Clients
// start in phase 1; a phase may resolve an operation either by returning a
// response or by switching the client — with a switch value and its
// pending input — to the next phase. Phases never share state: the switch
// value is the only information that crosses the boundary, enforced by
// construction because the Composer is the only connection between them.
//
// The Composer records the object-level trace (invocations, responses and
// switch actions, numbered as in §5.1) so that runs can be checked against
// LinT and SLinT by packages lin and slin.
package core

import (
	"fmt"
	"sync"

	"repro/internal/trace"
)

// OutcomeKind says how a phase resolved an operation.
type OutcomeKind uint8

const (
	// Return means the phase produced a response for the client.
	Return OutcomeKind = iota
	// SwitchOut means the phase aborts the client's operation and passes
	// it to the next phase along with a switch value.
	SwitchOut
)

// Outcome is a phase's resolution of one client operation.
type Outcome struct {
	Kind OutcomeKind
	// Output is the ADT output; meaningful when Kind == Return.
	Output trace.Value
	// SwitchValue is the initialization value passed to the next phase;
	// meaningful when Kind == SwitchOut.
	SwitchValue trace.Value
}

// ReturnOutcome builds a Return outcome.
func ReturnOutcome(out trace.Value) Outcome { return Outcome{Kind: Return, Output: out} }

// SwitchOutcome builds a SwitchOut outcome.
func SwitchOutcome(v trace.Value) Outcome { return Outcome{Kind: SwitchOut, SwitchValue: v} }

// Phase is one speculation phase of a concurrent object. Implementations
// must be safe for concurrent use by multiple client goroutines.
//
// Invoke submits a fresh input from a client that already executes in this
// phase. SwitchIn delivers a pending input transferred from the previous
// phase together with its switch value (the phase's init action). Both may
// resolve the operation by returning or by switching onward.
type Phase interface {
	// Name identifies the phase in diagnostics.
	Name() string
	Invoke(c trace.ClientID, in trace.Value) (Outcome, error)
	SwitchIn(c trace.ClientID, in trace.Value, init trace.Value) (Outcome, error)
}

// Composer chains speculation phases 1..n into one concurrent object.
// Each client independently advances through the phases: once a client has
// entered phase k it never uses an earlier phase again (§5.1); no
// agreement between clients is needed to switch.
type Composer struct {
	phases []Phase
	rec    *Recorder

	mu  sync.Mutex
	cur map[trace.ClientID]int // index into phases; clients start at 0
}

// NewComposer builds an object from the given phases, in order. At least
// one phase is required; the last phase must never switch out (it is the
// robust backup).
func NewComposer(phases ...Phase) (*Composer, error) {
	if len(phases) == 0 {
		return nil, fmt.Errorf("core: composer needs at least one phase")
	}
	return &Composer{
		phases: phases,
		rec:    NewRecorder(),
		cur:    map[trace.ClientID]int{},
	}, nil
}

// phaseIndex returns the phase the client currently executes in.
func (o *Composer) phaseIndex(c trace.ClientID) int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.cur[c]
}

func (o *Composer) setPhaseIndex(c trace.ClientID, k int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if k > o.cur[c] {
		o.cur[c] = k
	}
}

// Invoke submits input in on behalf of client c and blocks until the
// composed object resolves it, possibly after the client switched through
// several phases. Clients are sequential: a client must not have two
// operations in flight.
func (o *Composer) Invoke(c trace.ClientID, in trace.Value) (trace.Value, error) {
	k := o.phaseIndex(c)
	o.rec.Record(trace.Invoke(c, k+1, in))
	out, err := o.phases[k].Invoke(c, in)
	if err != nil {
		return "", fmt.Errorf("core: phase %s: %w", o.phases[k].Name(), err)
	}
	for out.Kind == SwitchOut {
		// The switch action carries the number of the phase being
		// switched TO (§5.1's example numbers the abort of phase k as k+1).
		o.rec.Record(trace.Switch(c, k+2, in, out.SwitchValue))
		if k+1 >= len(o.phases) {
			return "", fmt.Errorf("core: last phase %s aborted operation %q of %s",
				o.phases[k].Name(), in, c)
		}
		k++
		out, err = o.phases[k].SwitchIn(c, in, out.SwitchValue)
		if err != nil {
			return "", fmt.Errorf("core: phase %s: %w", o.phases[k].Name(), err)
		}
	}
	o.setPhaseIndex(c, k)
	o.rec.Record(trace.Response(c, k+1, in, out.Output))
	return out.Output, nil
}

// Trace returns a snapshot of the object-level trace recorded so far.
func (o *Composer) Trace() trace.Trace { return o.rec.Trace() }

// Recorder collects trace actions from concurrent clients. The zero value
// is not usable; call NewRecorder.
type Recorder struct {
	mu sync.Mutex
	t  trace.Trace
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Record appends an action.
func (r *Recorder) Record(a trace.Action) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.t = append(r.t, a)
}

// Trace returns a snapshot of the recorded trace.
func (r *Recorder) Trace() trace.Trace {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.t.Clone()
}

// Len returns the number of recorded actions.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.t)
}

// Package workload generates random traces, schedules and command
// streams for the checker experiments: well-formed concurrent traces
// that are linearizable by construction (operations take effect at a
// chosen commit point between invocation and response), optionally
// corrupted variants, speculative consensus phase traces in the shape
// of the paper's case studies, and the SMR-side workloads — Keyed
// builds single-key KV command streams (uniform or zipf-skewed keys)
// for the sharded cluster, and Mixed extends them with multi-key
// MultiPut/MultiGet/CAS transactions drawn within key-groups for the
// transaction layer (E12/E19). All generators are deterministic under
// a caller-supplied rand source.
package workload

import (
	"math/rand"
	"strconv"

	"repro/internal/adt"
	"repro/internal/trace"
)

// TraceOpts configures random trace generation.
type TraceOpts struct {
	// Clients is the number of concurrent clients (default 3).
	Clients int
	// Ops is the number of operations to attempt (default 6).
	Ops int
	// Inputs is the pool of ADT inputs to draw from; required.
	Inputs []trace.Value
	// PendingProb is the probability that an invoked operation never
	// responds (stays pending).
	PendingProb float64
	// CorruptProb is the probability that a response's output is replaced
	// with a plausible-but-possibly-wrong output, generally destroying
	// linearizability.
	CorruptProb float64
	// UniqueTags attaches a distinct occurrence tag to every invocation.
	// The paper's new linearizability definition coincides with the
	// classical one exactly on unique-input traces (see the repeated-
	// events divergence finding in EXPERIMENTS.md), so the equivalence
	// experiment E8 sets this.
	UniqueTags bool
}

func (o TraceOpts) withDefaults() TraceOpts {
	if o.Clients <= 0 {
		o.Clients = 3
	}
	if o.Ops <= 0 {
		o.Ops = 6
	}
	return o
}

// Random generates a well-formed trace of f. Operations linearize at a
// random commit point between invocation and response, so with
// CorruptProb == 0 the result is linearizable by construction.
func Random(f adt.Folder, r *rand.Rand, opts TraceOpts) trace.Trace {
	opts = opts.withDefaults()
	type clientState struct {
		pending   bool
		committed bool
		input     trace.Value
		output    trace.Value
	}
	states := make([]clientState, opts.Clients)
	var t trace.Trace
	st := f.Empty()
	invoked := 0

	clientID := func(i int) trace.ClientID {
		return trace.ClientID("c" + string(rune('1'+i%9)) + string(rune('a'+i/9)))
	}

	for guard := 0; guard < opts.Ops*20; guard++ {
		// Collect enabled moves: invoke, commit, respond.
		type move struct{ kind, client int }
		var moves []move
		for c := range states {
			switch {
			case !states[c].pending && invoked < opts.Ops:
				moves = append(moves, move{0, c})
			case states[c].pending && !states[c].committed:
				moves = append(moves, move{1, c})
			case states[c].pending && states[c].committed:
				moves = append(moves, move{2, c})
			}
		}
		if len(moves) == 0 {
			break
		}
		mv := moves[r.Intn(len(moves))]
		c := mv.client
		switch mv.kind {
		case 0: // invoke
			in := opts.Inputs[r.Intn(len(opts.Inputs))]
			if opts.UniqueTags {
				in = adt.Tag(in, strconv.Itoa(invoked))
			}
			states[c] = clientState{pending: true, input: in}
			t = append(t, trace.Invoke(clientID(c), 1, in))
			invoked++
		case 1: // commit: the operation takes effect now
			states[c].committed = true
			states[c].output = f.Out(st, states[c].input)
			st = f.Step(st, states[c].input)
		case 2: // respond
			out := states[c].output
			if r.Float64() < opts.CorruptProb {
				out = corruptOutput(f, r, opts, out)
			}
			t = append(t, trace.Response(clientID(c), 1, states[c].input, out))
			states[c] = clientState{}
		}
	}
	// Leave a random subset of still-pending operations pending; respond
	// to the rest so traces end in varied shapes.
	for c := range states {
		if !states[c].pending {
			continue
		}
		if r.Float64() < opts.PendingProb {
			continue
		}
		if !states[c].committed {
			states[c].output = f.Out(st, states[c].input)
			st = f.Step(st, states[c].input)
		}
		out := states[c].output
		if r.Float64() < opts.CorruptProb {
			out = corruptOutput(f, r, opts, out)
		}
		t = append(t, trace.Response(clientID(c), 1, states[c].input, out))
	}
	return t
}

// corruptOutput produces a plausible wrong output: the output of a random
// input applied at a random earlier point of the committed state's
// evolution, or at the empty state.
func corruptOutput(f adt.Folder, r *rand.Rand, opts TraceOpts, out trace.Value) trace.Value {
	in := opts.Inputs[r.Intn(len(opts.Inputs))]
	st := f.Empty()
	for i, n := 0, r.Intn(3); i < n; i++ {
		st = f.Step(st, opts.Inputs[r.Intn(len(opts.Inputs))])
	}
	alt := f.Out(st, in)
	if alt == out {
		return f.Out(f.Empty(), in) // last resort; may still coincide
	}
	return alt
}

// SplitDecision builds the canonical hard exhaustive workload: w
// concurrent tagged proposals answered by alternating split decisions.
// The trace is never linearizable, so exact checkers exhaust their full
// memoized DAGs on it (deterministic node counts), and after the first
// chain element every remaining proposal commutes — a worst case for a
// search that tells commit orders apart, and a best case for one that
// keys configurations position-free. clientPrefix names the clients ("h"
// yields h0, h1, ...).
func SplitDecision(w int, clientPrefix string) trace.Trace {
	var t trace.Trace
	for i := 0; i < w; i++ {
		c := trace.ClientID(clientPrefix + strconv.Itoa(i))
		t = append(t, trace.Invoke(c, 1, adt.Tag(adt.ProposeInput("v"+strconv.Itoa(i)), string(c))))
	}
	for i := 0; i < w; i++ {
		c := trace.ClientID(clientPrefix + strconv.Itoa(i))
		in := adt.Tag(adt.ProposeInput("v"+strconv.Itoa(i)), string(c))
		t = append(t, trace.Response(c, 1, in, adt.DecideOutput("v"+strconv.Itoa(i%2))))
	}
	return t
}

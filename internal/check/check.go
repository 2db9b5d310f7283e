// Package check hosts the vocabulary shared by the lin and slin
// checkers — the checker API v2 (DESIGN.md, decision 11) — plus a small
// model checker for step systems.
//
// The shared checker surface (opts.go, parallel.go, bitset.go): the
// three-valued Verdict, the functional Option set (WithBudget — search
// nodes per fed action, decision 34 — WithWorkers, WithWitness, ...)
// resolved into one Settings struct by every one-shot check and
// incremental Session in lin and slin, and the classical checker's
// BitSet (decision 13). The frontier engine both checkers run is
// lin.Frontier (decision 31).
//
// The model checker (check.go): it explores instruction-level
// interleavings of concurrent processes over shared state and hands
// each complete run's trace (or each reachable state) to an oracle.
// Experiment E6 uses it to validate the §2.5 shared-memory case study
// against the lin/slin checkers and the paper's invariants. Three
// exploration modes:
//
//   - ExhaustiveTraces enumerates every schedule (complete interleaving)
//     of the system and visits each complete run — exact but exponential;
//     practical for two to three clients.
//   - ExhaustiveStates explores the reachable state graph with
//     deduplication and visits every distinct state once — practical for
//     more clients, suitable for state invariants.
//   - RandomTraces samples schedules uniformly at random — a probabilistic
//     complement at sizes exhaustive search cannot reach.
package check

import (
	"errors"
	"math/rand"

	"repro/internal/trace"
)

// System is a clonable step system. The concrete type returned by Clone
// must be the same as the receiver's.
type System[S any] interface {
	// Enabled returns the indices of processes that can step.
	Enabled() []int
	// Step advances process i by one atomic step, mutating the system.
	Step(i int)
	// Clone returns an independent deep copy.
	Clone() S
	// Trace returns the interface-level trace recorded so far.
	Trace() trace.Trace
	// Key canonically encodes the state (excluding the trace).
	Key() string
}

// ErrStop may be returned by visitors to stop exploration early without
// reporting an error to the caller.
var ErrStop = errors.New("check: stop requested")

// Stats reports exploration effort.
type Stats struct {
	// Runs is the number of complete runs visited (trace modes).
	Runs int
	// States is the number of distinct states visited (state mode).
	States int
	// Steps is the total number of process steps executed.
	Steps int
}

// ExhaustiveTraces enumerates all schedules of sys and calls visit with
// each complete run's trace. It returns exploration statistics. A visit
// error aborts the search (ErrStop aborts without error).
func ExhaustiveTraces[S System[S]](sys S, visit func(S) error) (Stats, error) {
	var st Stats
	err := dfsTraces(sys, visit, &st)
	if errors.Is(err, ErrStop) {
		err = nil
	}
	return st, err
}

func dfsTraces[S System[S]](sys S, visit func(S) error, st *Stats) error {
	enabled := sys.Enabled()
	if len(enabled) == 0 {
		st.Runs++
		return visit(sys)
	}
	for idx, i := range enabled {
		next := sys
		if idx < len(enabled)-1 {
			next = sys.Clone() // reuse the original for the last branch
		}
		next.Step(i)
		st.Steps++
		if err := dfsTraces(next, visit, st); err != nil {
			return err
		}
	}
	return nil
}

// ExhaustiveStates explores the reachable state graph of sys with
// deduplication on Key and calls visit once per distinct state (including
// the initial one). Traces are not meaningful across merged paths; the
// visitor receives the system for state inspection only.
//
// Deduplication interns each canonical Key string to a 128-bit digest
// (trace.HashString) and retains only the digest, so the visited set
// costs 16 bytes per state instead of a full state encoding and lookups
// compare fixed-size values (the ROADMAP "model-checker state interning"
// item; same rationale as the checker memo keys of DESIGN.md decision
// 7). A digest collision (~2⁻¹²⁸ per state pair) would silently merge
// two distinct states; ExhaustiveStatesReference retains the exact
// string-keyed exploration, and the property tests assert the two visit
// identical state counts.
func ExhaustiveStates[S System[S]](sys S, visit func(S) error) (Stats, error) {
	seen := map[trace.Digest]struct{}{}
	return exhaustiveStates(sys, visit, func(k string) bool {
		d := trace.HashString(k)
		if _, ok := seen[d]; ok {
			return false
		}
		seen[d] = struct{}{}
		return true
	})
}

// ExhaustiveStatesReference is ExhaustiveStates with the original
// string-keyed visited set, retained as the executable specification of
// the digest-interned exploration.
func ExhaustiveStatesReference[S System[S]](sys S, visit func(S) error) (Stats, error) {
	seen := map[string]bool{}
	return exhaustiveStates(sys, visit, func(k string) bool {
		if seen[k] {
			return false
		}
		seen[k] = true
		return true
	})
}

// exhaustiveStates is the exploration loop; admit reports whether a
// canonical state key is new (and marks it seen).
func exhaustiveStates[S System[S]](sys S, visit func(S) error, admit func(string) bool) (Stats, error) {
	var st Stats
	stack := []S{sys}
	admit(sys.Key())
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		st.States++
		if err := visit(cur); err != nil {
			if errors.Is(err, ErrStop) {
				return st, nil
			}
			return st, err
		}
		for _, i := range cur.Enabled() {
			next := cur.Clone()
			next.Step(i)
			st.Steps++
			if admit(next.Key()) {
				stack = append(stack, next)
			}
		}
	}
	return st, nil
}

// RandomTraces runs n uniformly random schedules of sys (each from a
// fresh clone) and calls visit with each complete run.
func RandomTraces[S System[S]](sys S, n int, seed int64, visit func(S) error) (Stats, error) {
	var st Stats
	rng := rand.New(rand.NewSource(seed))
	for run := 0; run < n; run++ {
		cur := sys.Clone()
		for {
			enabled := cur.Enabled()
			if len(enabled) == 0 {
				break
			}
			cur.Step(enabled[rng.Intn(len(enabled))])
			st.Steps++
		}
		st.Runs++
		if err := visit(cur); err != nil {
			if errors.Is(err, ErrStop) {
				return st, nil
			}
			return st, err
		}
	}
	return st, nil
}

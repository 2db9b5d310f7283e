package lin

import (
	"repro/internal/adt"
	"repro/internal/trace"
)

// fastMutex is the streaming mutex fast path (DESIGN.md, decision 15):
// a lazy greedy simulation of the lock/unlock alternation, specialized
// to the all-acquires-succeed fragment — grammar-valid inputs with
// pairwise-distinct input strings whose outputs are all "ok:" (an
// "err:*" output is semantically explainable by the mutex ADT, so it
// falls back to the exact engines rather than rejecting).
//
// The core maintains one growing alternating chain of linearized
// inputs plus the simulated lock state, linearizing as late as
// possible: an operation linearizes at its own response, and when its
// response finds the wrong state, one *pending* operation of the
// opposite kind — the oldest-invoked unassigned one — is linearized
// first as a helper ("assigned" a chain position it claims when its
// own response later arrives). Accepts are certain: the simulation is
// itself a legal alternation with every linearization point inside its
// operation's interval, and Witness() replays it.
//
// Rejects are certain too, but come from a separate counting argument
// rather than the greedy: in any linearization the sequence alternates
// lock, unlock, lock, ... and every responded operation has already
// linearized, so at every trace moment the linearized lock count k and
// unlock count j satisfy k − j ∈ {0, 1}, RL ≤ k ≤ RL+PL and
// RU ≤ j ≤ RU+PU (R = responded, P = invoked-but-pending). A moment
// with RU > RL + PL (an unlock nothing can precede) or
// RL > RU + PU + 1 (two acquires no release can separate) therefore
// defeats every linearization. A broken lock shows up as the latter
// the first time two holders' acquires respond while no release is in
// flight. When the greedy sticks without the counters firing (a
// helper choice taken earlier turns out locally wrong), the core exits
// the fragment and the exact engines decide — rejects never depend on
// the greedy's completeness.
type fastMutex struct {
	seen   map[trace.Value]struct{}
	ops    map[int]*mutexOp // open operations, by invocation trace index
	pool   [2][]int         // unassigned pending invIdxs per kind, oldest first
	poolLo [2]int           // consumed prefix of pool (lazy deletion)
	locked bool
	chain  trace.History
	marks  []resMark
	rl, ru int // responded locks/unlocks
	pl, pu int // invoked-but-pending locks/unlocks
}

// resMark records that response index res claims the chain prefix of
// length k; Witness materializes the map lazily.
type resMark struct {
	res, k int
}

type mutexOp struct {
	lock     bool
	in       trace.Value
	assigned bool // linearized as a helper; pos holds its chain prefix
	pos      int
}

const (
	kindLock = iota
	kindUnlock
)

func newFastMutex() *fastMutex {
	return &fastMutex{
		seen: map[trace.Value]struct{}{},
		ops:  map[int]*mutexOp{},
	}
}

// Inv implements FastChecker.
func (m *fastMutex) Inv(in trace.Value, idx int) FastStatus {
	if _, dup := m.seen[in]; dup {
		return FastExit
	}
	m.seen[in] = struct{}{}
	var lock bool
	switch adt.Untag(in) {
	case adt.LockInput():
		lock = true
		m.pl++
	case adt.UnlockInput():
		m.pu++
	default:
		return FastExit
	}
	m.ops[idx] = &mutexOp{lock: lock, in: in}
	m.pool[kindOf(lock)] = append(m.pool[kindOf(lock)], idx)
	return FastOK
}

func kindOf(lock bool) int {
	if lock {
		return kindLock
	}
	return kindUnlock
}

// Res implements FastChecker.
func (m *fastMutex) Res(in, out trace.Value, invIdx, idx int) FastStatus {
	if out != adt.WriteOutput() {
		return FastExit // "err:*" (or garbage) outputs: exact semantics decide
	}
	o := m.ops[invIdx]
	if o.lock {
		m.rl, m.pl = m.rl+1, m.pl-1
	} else {
		m.ru, m.pu = m.ru+1, m.pu-1
	}
	// The counting necessary conditions; violating either defeats every
	// linearization, so the verdict is final.
	if m.ru > m.rl+m.pl || m.rl > m.ru+m.pu+1 {
		return FastReject
	}
	// Responded, hence linearized by the end of this call: the operation
	// leaves ops, which therefore holds the open operations only.
	delete(m.ops, invIdx)
	if o.assigned {
		m.marks = append(m.marks, resMark{res: idx, k: o.pos})
		return FastOK
	}
	if m.locked == o.lock {
		// Wrong state: linearize the oldest pending opposite-kind helper.
		h := m.takeOldest(kindOf(!o.lock))
		if h == nil {
			return FastExit // greedy stuck without a counter violation
		}
		m.append(h)
	}
	m.append(o)
	m.marks = append(m.marks, resMark{res: idx, k: o.pos})
	return FastOK
}

// takeOldest pops the oldest unassigned still-pending operation of the
// given kind, or nil. Pool entries no longer in ops have responded.
func (m *fastMutex) takeOldest(kind int) *mutexOp {
	pool := m.pool[kind]
	for m.poolLo[kind] < len(pool) {
		o := m.ops[pool[m.poolLo[kind]]]
		m.poolLo[kind]++
		if o != nil && !o.assigned {
			return o
		}
	}
	return nil
}

// append linearizes o: its input joins the chain and the state flips.
func (m *fastMutex) append(o *mutexOp) {
	m.chain = append(m.chain, o.in)
	o.pos = len(m.chain)
	o.assigned = true
	m.locked = o.lock
}

// Witness implements FastChecker: every response claims the chain
// prefix ending at its operation's linearization point.
func (m *fastMutex) Witness() Witness {
	w := Witness{}
	for _, mk := range m.marks {
		w[mk.res] = m.chain[:mk.k].Clone()
	}
	return w
}

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
//
// The core holds the open operations and nothing else per operation
// (DESIGN.md, decision 24): an operation's record, found by the slot its
// invocation returned, leaves the helper queue at its response and is
// reused, slot and all, for a later invocation, so ops holds as many
// records as were ever open at once; the chain and its response marks —
// witness material — are kept only when the session asked for
// witnesses; the verdict needs the chain's length alone.
//
// Quiescent cut (DESIGN.md, decisions 26 and 35): with no operation open
// every operation returned "ok:", so every linearization is a strict
// alternation of all of them and ends in the one state the simulation
// holds. The core restarts there, holding nothing of the stretch.
type fastMutex struct {
	witness bool
	ops     []*mutexOp // every record, by slot: the open operations' and the free ones
	// waiting holds, per kind, the open operations not linearized yet,
	// oldest invocation first: where a helper is taken from.
	waiting [2]mutexQueue
	free    *mutexOp // recycled records, linked through next
	locked  bool
	n       int           // chain length
	chain   trace.History // witness: the linearized inputs
	marks   []resMark     // witness: which prefix each response claims
	rl, ru  int           // responded locks/unlocks
	pl, pu  int           // invoked-but-pending locks/unlocks
	cut     [1]adt.State  // cutStates' answer
}

// The mutex states, as adt.Mutex names them.
var (
	mutexFree = adt.Mutex{}.Empty()
	mutexHeld = adt.Mutex{}.Step(mutexFree, adt.LockInput())
)

// resMark records that response index res claims the chain prefix of
// length k; Witness materializes the map lazily.
type resMark struct {
	res, k int
}

type mutexOp struct {
	slot     int32 // its position in ops, for good
	lock     bool
	in       trace.Value
	assigned bool // linearized (as a helper, if still open); pos holds its chain prefix
	pos      int
	// prev and next link the operation into its kind's waiting queue
	// while it is unassigned (next also links the free list).
	prev, next *mutexOp
}

// mutexQueue is a FIFO of open operations with removal from anywhere.
type mutexQueue struct {
	head, tail *mutexOp
}

func (q *mutexQueue) push(o *mutexOp) {
	o.prev, o.next = q.tail, nil
	if q.tail != nil {
		q.tail.next = o
	} else {
		q.head = o
	}
	q.tail = o
}

func (q *mutexQueue) remove(o *mutexOp) {
	if o.prev != nil {
		o.prev.next = o.next
	} else {
		q.head = o.next
	}
	if o.next != nil {
		o.next.prev = o.prev
	} else {
		q.tail = o.prev
	}
	o.prev, o.next = nil, nil
}

const (
	kindLock = iota
	kindUnlock
)

func newFastMutex(witness bool) *fastMutex { return &fastMutex{witness: witness} }

// Inv implements FastChecker: the slot is the operation's record's.
func (m *fastMutex) Inv(in trace.Value, idx int) (int32, FastStatus) {
	var lock bool
	switch adt.Untag(in) {
	case adt.LockInput():
		lock = true
		m.pl++
	case adt.UnlockInput():
		m.pu++
	default:
		return 0, FastExit
	}
	o := m.free
	if o != nil {
		m.free, o.next = o.next, nil
	} else {
		o = &mutexOp{slot: int32(len(m.ops))}
		m.ops = append(m.ops, o)
	}
	o.lock, o.in = lock, in
	m.waiting[kindOf(lock)].push(o)
	return o.slot, FastOK
}

func kindOf(lock bool) int {
	if lock {
		return kindLock
	}
	return kindUnlock
}

// Res implements FastChecker.
func (m *fastMutex) Res(in, out trace.Value, slot int32, invIdx, idx int) FastStatus {
	if out != adt.WriteOutput() {
		return FastExit // "err:*" (or garbage) outputs: exact semantics decide
	}
	o := m.ops[slot]
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
	if !o.assigned {
		if m.locked == o.lock {
			// Wrong state: linearize the oldest pending opposite-kind helper.
			h := m.waiting[kindOf(!o.lock)].head
			if h == nil {
				return FastExit // greedy stuck without a counter violation
			}
			m.linearize(h)
		}
		m.linearize(o)
	}
	if m.witness {
		m.marks = append(m.marks, resMark{res: idx, k: o.pos})
	}
	// Responded, hence linearized: the operation leaves the core, which
	// therefore holds the open operations only.
	*o = mutexOp{slot: slot, next: m.free}
	m.free = o
	return FastOK
}

// linearize appends o to the chain: the state flips, and o stops
// waiting for a helper choice.
func (m *fastMutex) linearize(o *mutexOp) {
	m.waiting[kindOf(o.lock)].remove(o)
	if m.witness {
		m.chain = append(m.chain, o.in)
	}
	m.n++
	o.pos = m.n
	o.assigned = true
	m.locked = o.lock
}

// cutStates implements cutter: the simulated lock state; the core
// restarts from it.
func (m *fastMutex) cutStates() ([]adt.State, bool) {
	m.cut[0] = mutexFree
	if m.locked {
		m.cut[0] = mutexHeld
	}
	return m.cut[:], true
}

// cutSeed implements cutter: this core always lists its states.
func (m *fastMutex) cutSeed() trace.Trace { return nil }

// Witness implements FastChecker: every response claims the chain
// prefix ending at its operation's linearization point.
func (m *fastMutex) Witness() Witness {
	if !m.witness {
		return nil
	}
	w := Witness{}
	for _, mk := range m.marks {
		w[mk.res] = m.chain[:mk.k].Clone()
	}
	return w
}

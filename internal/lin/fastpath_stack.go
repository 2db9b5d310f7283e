package lin

import (
	"strings"

	"repro/internal/adt"
	"repro/internal/trace"
)

// fastStack is the streaming stack fast path (DESIGN.md, decision 15):
// a lazy greedy LIFO simulation over the distinct-pushes fragment —
// grammar-valid inputs with pairwise-distinct input strings and
// pairwise-distinct untagged push values, and no empty pops (a "v:⊥"
// pop output exits to the exact engines, like the queue core).
//
// The simulated stack holds linearized-but-unpopped values; operations
// linearize as late as possible. A push linearizes at its own response
// (or earlier, as a helper, when a pop returns its value first). A pop
// response returning x forces x to the top: values above x are popped
// by helper pops — the oldest-invoked unassigned pending pops, each
// assigned the value it is expected to return — and a still-pending
// push of x is linearized first if needed. Accepts are certain (the
// simulation is a legal stack execution with every point inside its
// operation's interval; Witness replays it) and so are the value-based
// rejects: a pop output no invoked push has supplied, a second pop
// response returning a distinct value, or a push answered by anything
// but "ok:" defeats every linearization. Everything else the greedy
// cannot place — no pending pop available to clear the stack above x,
// an assigned helper whose real response later disagrees with its
// expected value, or a pop returning a value a still-open helper was
// guessed to have popped — exits the fragment, so rejects never depend on the greedy's
// completeness; FuzzFastpathVsExact and the diffcheck boundary tests
// keep the three outcomes honest against the exact search.
//
// As in the mutex core, an operation's record leaves ops — where the
// slot its invocation returned finds it — at its response, and the chain
// and its marks are witness material, kept only when the session asked
// for witnesses (DESIGN.md, decision 24); what stays per input of the
// stretch since the last cut is a pop's record in pool and a stackVal
// for a pushed value.
//
// Quiescent cut (DESIGN.md, decisions 26 and 35): with no operation open
// the unpopped values are fixed, but their order on the stack need not
// be, so the core answers only when at most one is left — the one state
// every linearization ends in. When it answers it restarts there: vals
// forgets the stretch, but for the value left on the stack, which a
// later push must not repeat, and pool holds only responded pops, so it
// empties.
type fastStack struct {
	witness bool
	ops     []*stackOp           // open operations, by slot; nil at a free slot
	free    []int32              // the free slots of ops
	vals    map[string]*stackVal // by untagged push value: the stretch's and the one left at the cut
	pool    []*stackOp           // pops, oldest first; responded ones are skipped
	poolLo  int
	stack   []*stackVal   // simulated stack, top last
	n       int           // chain length
	chain   trace.History // witness: the linearized inputs
	marks   []resMark     // witness: which prefix each response claims
	cut     [1]adt.State
}

type stackOp struct {
	push     bool
	in       trace.Value
	val      *stackVal // the pushed value (pushes only)
	assigned bool
	pos      int    // claimed chain prefix once linearized
	expected string // assigned pops: the value the helper must return
	done     bool   // responded
}

type stackVal struct {
	val    string
	pushOp *stackOp
	state  uint8
}

const (
	valPending = iota // its push is still in flight
	valOnStack        // on the simulated stack
	valGuessed        // popped by a helper that has not responded yet
	valPopped         // returned by a pop's response
)

func newFastStack(witness bool) *fastStack {
	return &fastStack{witness: witness, vals: map[string]*stackVal{}}
}

// Inv implements FastChecker: the slot is where ops holds the record.
func (s *fastStack) Inv(in trace.Value, idx int) (int32, FastStatus) {
	op, arg, ok := strings.Cut(string(adt.Untag(in)), ":")
	o := &stackOp{in: in}
	switch {
	case !ok:
		return 0, FastExit
	case op == "push":
		if arg == "" || arg == string(adt.Bottom) || strings.ContainsRune(arg, '\x00') {
			return 0, FastExit
		}
		if _, dup := s.vals[arg]; dup {
			return 0, FastExit // duplicate push value
		}
		o.push = true
		o.val = &stackVal{val: arg, pushOp: o}
		s.vals[arg] = o.val
	case op == "pop" && arg == "":
		s.pool = append(s.pool, o)
	default:
		return 0, FastExit
	}
	if n := len(s.free); n > 0 {
		slot := s.free[n-1]
		s.free, s.ops[slot] = s.free[:n-1], o
		return slot, FastOK
	}
	s.ops = append(s.ops, o)
	return int32(len(s.ops) - 1), FastOK
}

// Res implements FastChecker.
func (s *fastStack) Res(in, out trace.Value, slot int32, invIdx, idx int) FastStatus {
	o := s.ops[slot]
	// Responded: linearized by the end of this call.
	o.done, s.ops[slot], s.free = true, nil, append(s.free, slot)
	if o.push {
		if out != adt.WriteOutput() {
			return FastReject // pushes can only ever output "ok:"
		}
		if !o.assigned {
			s.linPush(o)
		}
		s.mark(idx, o)
		return FastOK
	}
	vop, varg, ok := strings.Cut(string(out), ":")
	if !ok || vop != "v" {
		return FastReject // pops can only ever output "v:x"
	}
	if varg == string(adt.Bottom) {
		return FastExit // empty pop: outside the fragment
	}
	if o.assigned {
		if varg != o.expected {
			return FastExit // the helper guess was wrong; exact engines decide
		}
		s.vals[varg].state = valPopped
		s.mark(idx, o)
		return FastOK
	}
	v := s.vals[varg]
	switch {
	case v == nil:
		return FastReject // value never pushed by any invocation so far
	case v.state == valPopped:
		return FastReject // distinct values pop at most once
	case v.state == valGuessed:
		return FastExit // a helper guessed it popped v: the guess was wrong
	}
	if v.state == valPending {
		s.linPush(v.pushOp) // the push is in flight: linearize it now
	}
	// Clear the simulated stack above v with helper pops, oldest first.
	for s.stack[len(s.stack)-1] != v {
		h := s.takeOldestPop()
		if h == nil {
			return FastExit // nothing pending can uncover v
		}
		top := s.stack[len(s.stack)-1]
		h.assigned, h.expected = true, top.val
		s.linearize(h)
		top.state = valGuessed
		s.stack = s.stack[:len(s.stack)-1]
	}
	s.linearize(o)
	v.state = valPopped
	s.stack = s.stack[:len(s.stack)-1]
	s.mark(idx, o)
	return FastOK
}

// linearize appends o to the chain.
func (s *fastStack) linearize(o *stackOp) {
	if s.witness {
		s.chain = append(s.chain, o.in)
	}
	s.n++
	o.pos = s.n
}

// mark records that response res claims the chain prefix ending at o.
func (s *fastStack) mark(res int, o *stackOp) {
	if s.witness {
		s.marks = append(s.marks, resMark{res: res, k: o.pos})
	}
}

// linPush linearizes push o: its value joins the simulated stack top.
func (s *fastStack) linPush(o *stackOp) {
	s.linearize(o)
	o.assigned = true
	o.val.state = valOnStack
	s.stack = append(s.stack, o.val)
}

// takeOldestPop pops the oldest unassigned still-pending pop, or nil.
func (s *fastStack) takeOldestPop() *stackOp {
	for s.poolLo < len(s.pool) {
		o := s.pool[s.poolLo]
		s.pool[s.poolLo] = nil
		s.poolLo++
		if !o.done && !o.assigned {
			return o
		}
	}
	return nil
}

// cutStates implements cutter: the empty stack, or the one value left on
// it (a one-element stack's state is the element, adt.Stack); with more,
// it declines. When it answers, the core restarts from the answer.
func (s *fastStack) cutStates() ([]adt.State, bool) {
	switch len(s.stack) {
	case 0:
		s.cut[0] = adt.Stack{}.Empty()
	case 1:
		s.cut[0] = adt.State(s.stack[0].val)
	default:
		return nil, false
	}
	// A map keeps the buckets of its largest size, so a large one is
	// replaced rather than cleared: a clear then costs what the stretch
	// that grew the map put in it.
	if len(s.vals) > stackValsKept {
		s.vals = make(map[string]*stackVal)
	} else {
		clear(s.vals)
	}
	for _, v := range s.stack {
		s.vals[v.val] = v
	}
	clear(s.pool[s.poolLo:]) // let the pops' records go
	s.pool, s.poolLo = s.pool[:0], 0
	return s.cut[:], true
}

// stackValsKept is the most values a restart clears vals of; a larger
// map is replaced.
const stackValsKept = 64

// cutSeed implements cutter: this core always lists its states.
func (s *fastStack) cutSeed() trace.Trace { return nil }

// Witness implements FastChecker.
func (s *fastStack) Witness() Witness {
	if !s.witness {
		return nil
	}
	w := Witness{}
	for _, mk := range s.marks {
		w[mk.res] = s.chain[:mk.k].Clone()
	}
	return w
}

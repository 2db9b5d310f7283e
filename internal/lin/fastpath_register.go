package lin

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/adt"
	"repro/internal/trace"
)

// fastRegister is the streaming register fast path (DESIGN.md, decision
// 15): a Gibbons–Korach-style interval analysis specialized to the
// distinct-writes fragment. Each written value v induces a block — the
// write of v plus every read returning v — summarized by two indices:
//
//	closedAt(B) — the trace index of the block's first response, fixed
//	              when the block "closes";
//	maxStart(B) — the maximum invocation index over the block's
//	              responded members, growing as reads join.
//
// In any linearization all members of a block are consecutive (reads
// return v only between the write of v and the next write), so blocks
// are totally ordered; an unordered block pair {A, B} is unserializable
// iff closedAt(A) < maxStart(B) and closedAt(B) < maxStart(A) — each
// must finish an operation before the other starts one, so neither can
// be placed entirely first. With pairwise-distinct inputs, one such
// pair already defeats every linearization (Validity pins each read to
// its unique write), so the trace is linearizable iff no pair violates.
//
// Only two event kinds can create a violating pair, which keeps the
// check near-linear: a read joining an already-closed block B with
// invocation index s violates iff some other closed block A has
// closedAt(A) < s and maxStart(A) > closedAt(B) — a range-maximum query
// over the closed-block array (closedAt-ascending by construction)
// through maxTree, excluding B itself; and an initial read with
// invocation index s violates iff any block closed before s (initial
// reads must precede every write). Block closes never violate (the
// closing index exceeds every recorded start), and writes create their
// block unconditionally.
//
// The initial values I are the states the register may hold before its
// first write: {⊥} from the start, and the cut's answer after a restart
// (below). A read returning a value of I that no write of the fragment
// wrote is an initial read: it reads the state before every write, so
// all such reads must return the same value, and the first narrows I to
// it — a read of another value of I then finds it neither in I nor
// written, and rejects. A write of a value of I would make its reads
// ambiguous, so it exits the fragment.
//
// Witness: concatenate the accepted initial reads (response order), then
// the closed blocks sorted by key(B) = max(closedAt(B), maxStart(B))
// ascending, each block as [write, reads in response order]; every
// response claims the prefix of this history ending at its own input.
// If key-earlier A had maxStart(A) > closedAt(B) for some later B, the
// non-violation of {A, B} would force maxStart(B) < closedAt(A) and
// hence key(A) > key(B) — contradiction; so every element of an
// earlier block is invoked before every response of a later one, which
// is exactly Validity.
//
// Quiescent cut (DESIGN.md, decisions 26 and 35): with no operation open
// every block is closed, and a linearization can end in block B iff B
// can be placed after every other block A, i.e. closedAt(B) >
// maxStart(A) — the remaining blocks in key order, then B, is a
// linearization. So the linearizations end in exactly the values of
// those blocks, or in I when no block closed. They are the blocks closed
// after the latest start of all, plus possibly the block holding that
// start. The core then restarts from that answer: every operation so
// far precedes every later one, so the trace is linearizable iff what
// follows is, from some state of the answer. I becomes the answer, and
// the table, blocks and closed arrays are emptied for the next stretch:
// a later written value equal to an earlier one can claim nothing before
// the cut, so distinctness holds within the stretch and against I alone.
//
// The core keeps, per write of the stretch, its block summary and a
// table slot, and hands the block's position to the session as the
// write's slot, so that an input is parsed once, at its invocation (a
// read's slot is -1); what the witness needs and the
// verdict does not — every member's input and response index — is kept
// only when the session asked for witnesses (DESIGN.md, decision 24),
// and then the session never cuts.
type fastRegister struct {
	witness   bool
	byVal     digestTable // the stretch's untagged written values → block position, exact
	blocks    []regBlock  // one per write of the stretch, in invocation order
	closedAt  []int       // the closed array: closedAt per closed position, ascending
	closed    []int32     // the block position at each closed position
	tree      maxTree     // maxStart per closed position
	init      []adt.State // I: the values the register holds before the stretch's first write
	initReads []regMember // witness: accepted initial reads, response order
	cut       []adt.State // cutStates' answer, reused
	// Storage for a one-value I and answer, the common case.
	initBuf, cutBuf [1]adt.State
}

type regBlock struct {
	val      string // untagged written value
	maxStart int
	closedAt int     // -1 while open
	pos      int     // position in the closed array, -1 while open
	wit      *regWit // nil unless the session asked for witnesses
}

// regWit is a block's witness material.
type regWit struct {
	wIn   trace.Value // the write's full input
	wRes  int         // write response index, -1 while pending
	reads []regMember
}

type regMember struct {
	in  trace.Value
	res int
}

func newFastRegister(witness, collide bool) *fastRegister {
	r := &fastRegister{witness: witness, byVal: digestTable{collide: collide}}
	r.init, r.cut = append(r.initBuf[:0], adt.Register{}.Empty()), r.cutBuf[:0]
	return r
}

// regParse splits an untagged register input into op and argument.
func regParse(in trace.Value) (op, arg string, ok bool) {
	op, arg, ok = strings.Cut(string(adt.Untag(in)), ":")
	return op, arg, ok
}

// blockOf returns the position in blocks of the write of val.
func (r *fastRegister) blockOf(val string) (int, bool) {
	return r.byVal.get(val, func(i int) bool { return r.blocks[i].val == val })
}

// initial reports whether val is one of I's values.
func (r *fastRegister) initial(val string) bool {
	return slices.Contains(r.init, adt.State(val))
}

// Inv implements FastChecker: a write's slot is its block's position, a
// read's -1.
func (r *fastRegister) Inv(in trace.Value, idx int) (int32, FastStatus) {
	op, arg, ok := regParse(in)
	switch {
	case !ok:
		return 0, FastExit
	case op == "w":
		if arg == "" || arg == string(adt.Bottom) {
			return 0, FastExit // grammar-invalid write; exact semantics differ
		}
		if r.initial(arg) {
			return 0, FastExit // its reads could read it or the initial state
		}
		if _, dup := r.blockOf(arg); dup {
			return 0, FastExit // duplicate written value
		}
		b := regBlock{val: arg, maxStart: idx, closedAt: -1, pos: -1}
		if r.witness {
			b.wit = &regWit{wIn: in, wRes: -1}
		}
		bi := int32(len(r.blocks))
		r.byVal.put(arg, int(bi))
		r.blocks = append(r.blocks, b)
		return bi, FastOK
	case op == "r" && arg == "":
		return -1, FastOK // reads act at their response
	}
	return 0, FastExit
}

// Res implements FastChecker.
func (r *fastRegister) Res(in, out trace.Value, slot int32, invIdx, idx int) FastStatus {
	if slot >= 0 {
		if out != adt.WriteOutput() {
			return FastReject
		}
		b := &r.blocks[slot]
		if b.closedAt < 0 {
			r.close(slot, idx)
		}
		if b.wit != nil {
			b.wit.wRes = idx
		}
		return FastOK
	}
	vop, varg, ok := strings.Cut(string(out), ":")
	if !ok || vop != "v" {
		return FastReject // reads can only ever output "v:x"
	}
	if r.initial(varg) {
		// An initial read must precede every write: it violates iff any
		// block closed before it was invoked.
		if len(r.closedAt) > 0 && r.closedAt[0] < invIdx {
			return FastReject
		}
		if len(r.init) > 1 {
			r.init = append(r.init[:0], adt.State(varg))
		}
		if r.witness {
			r.initReads = append(r.initReads, regMember{in: in, res: idx})
		}
		return FastOK
	}
	bi, written := r.blockOf(varg)
	if !written {
		return FastReject // neither written by any invocation so far nor initial
	}
	b := &r.blocks[bi]
	if b.closedAt < 0 {
		if invIdx > b.maxStart {
			b.maxStart = invIdx
		}
		r.close(int32(bi), idx)
	} else {
		// Joining a closed block: query the other blocks closed before this
		// read was invoked for a start after b's close.
		cnt := sort.SearchInts(r.closedAt, invIdx)
		if r.tree.MaxExcluding(cnt, b.pos) > b.closedAt {
			return FastReject
		}
		if invIdx > b.maxStart {
			b.maxStart = invIdx
			r.tree.Update(b.pos, invIdx)
		}
	}
	if b.wit != nil {
		b.wit.reads = append(b.wit.reads, regMember{in: in, res: idx})
	}
	return FastOK
}

// close records the first response of the block at position bi, at
// index idx.
func (r *fastRegister) close(bi int32, idx int) {
	b := &r.blocks[bi]
	b.closedAt = idx
	b.pos = len(r.closedAt)
	r.closedAt = append(r.closedAt, idx)
	r.closed = append(r.closed, bi)
	r.tree.Append(b.maxStart)
}

// cutStates implements cutter (see the type comment for the rule), and
// restarts the core from its answer.
func (r *fastRegister) cutStates() ([]adt.State, bool) {
	r.cut = r.cut[:0]
	n := len(r.closedAt)
	if n == 0 {
		r.cut = append(r.cut, r.init...)
	} else {
		last := r.tree.Max(0, n)
		p := n - 1
		for ; p >= 0 && r.closedAt[p] > last; p-- {
			r.cut = append(r.cut, adt.State(r.blocks[r.closed[p]].val))
		}
		// Every block closed before the latest start precedes the block
		// holding it, which itself can be last iff it closed after every
		// other block's latest start.
		if top := r.tree.ArgMax(); top <= p && r.closedAt[top] > r.tree.MaxExcluding(n, top) {
			r.cut = append(r.cut, adt.State(r.blocks[r.closed[top]].val))
		}
	}
	r.init = append(r.init[:0], r.cut...)
	r.byVal.reset()
	clear(r.blocks) // let the values they name go
	r.blocks = r.blocks[:0]
	r.closedAt, r.closed = r.closedAt[:0], r.closed[:0]
	r.tree.Reset()
	return r.cut, true
}

// cutSeed implements cutter: this core always lists its states.
func (r *fastRegister) cutSeed() trace.Trace { return nil }

// Witness implements FastChecker (see the type comment for the
// construction and its correctness argument).
func (r *fastRegister) Witness() Witness {
	if !r.witness {
		return nil
	}
	var order []*regBlock // closed blocks, by key
	for i := range r.blocks {
		if b := &r.blocks[i]; b.closedAt >= 0 {
			order = append(order, b)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		return maxInt(order[i].closedAt, order[i].maxStart) <
			maxInt(order[j].closedAt, order[j].maxStart)
	})
	w := Witness{}
	var hist trace.History
	for _, m := range r.initReads {
		hist = append(hist, m.in)
		w[m.res] = hist.Clone()
	}
	for _, b := range order {
		hist = append(hist, b.wit.wIn)
		if b.wit.wRes >= 0 {
			w[b.wit.wRes] = hist.Clone()
		}
		for _, m := range b.wit.reads {
			hist = append(hist, m.in)
			w[m.res] = hist.Clone()
		}
	}
	return w
}

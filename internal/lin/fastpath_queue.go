package lin

import (
	"context"
	"math"
	"slices"
	"strings"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
)

// fastQueueCheck is the one-shot FIFO-queue fast path (DESIGN.md,
// decision 15), following the matched enqueue/dequeue segment analysis
// of Bouajjani–Emmi–Enea–Hamza. Its fragment is stricter than the
// streaming cores': the trace must be complete (every operation
// responded), inputs pairwise distinct, untagged enqueue values
// pairwise distinct, and no dequeue may report empty — anything else
// falls back to the exact engines. Inside the fragment, with distinct
// values, a linearization exists iff
//
//	(a) every dequeued value was enqueued exactly once, dequeued at
//	    most once, and its dequeue does not respond before its enqueue
//	    is invoked;
//	(b) no pair of dequeued values u, v has enq(u) responding before
//	    enq(v) is invoked while deq(v) responds before deq(u) is
//	    invoked — FIFO would need u out first, real time forbids it;
//	(c) no value enqueued-and-responded but never dequeued precedes
//	    (enqueue response before enqueue invocation) a dequeued value —
//	    the undequeued value would block the dequeued one forever.
//
// Condition (b) is checked with an O(n log n) sweep: values sorted by
// enqueue invocation, a pointer over enqueue responses maintaining the
// running maximum dequeue invocation. On a positive verdict the core
// assembles a Lin witness (queueWitness) up to fastQueueWitnessCap
// dequeued values; beyond the cap the Result carries an empty Witness —
// FuzzFastpathVsExact keeps verdicts and witnesses honest against the
// exact search.
func fastQueueCheck(ctx context.Context, t trace.Trace, set check.Settings, collide bool) (Result, bool, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, true, err
	}
	notWF := func(idx int) (Result, bool, error) {
		return Result{OK: false, Reason: "trace is not well-formed", Nodes: idx + 1}, true, nil
	}
	reject := Result{OK: false, Reason: "no linearization function exists", Nodes: len(t)}
	if len(t) > math.MaxInt32 {
		return Result{}, false, nil // beyond queueOp's indices
	}

	// Pass 1: well-formedness, fragment membership, operation intervals.
	// ops is in invocation order; open and enqs hold positions in it.
	ops := make([]queueOp, 0, (len(t)+1)/2) // a complete trace has two actions an operation
	open := map[trace.ClientID]int{}        // client → its open operation, absent when none
	seen := digestTable{collide: collide}   // every input (distinctness)
	enqs := digestTable{collide: collide}   // untagged value → its enqueue, exact
	enqOf := func(arg string) (int, bool) {
		return enqs.get(arg, func(i int) bool { return enqArg(t[ops[i].inv].Input) == arg })
	}
	for idx := range t {
		a := &t[idx] // an action is 80 bytes: read it where it lies
		if idx&ctxPollMask == ctxPollMask {
			if err := ctx.Err(); err != nil {
				return Result{Nodes: idx}, true, err
			}
		}
		switch a.Kind {
		case trace.Inv:
			if _, busy := open[a.Client]; busy {
				return notWF(idx)
			}
			if seen.add(a.Input) {
				return Result{}, false, nil
			}
			op, arg, ok := strings.Cut(string(adt.Untag(a.Input)), ":")
			o := queueOp{inv: int32(idx), res: -1, peer: -1}
			switch {
			case !ok:
				return Result{}, false, nil
			case op == "enq":
				if arg == "" || arg == string(adt.Bottom) || strings.ContainsRune(arg, '\x00') {
					return Result{}, false, nil
				}
				if _, dup := enqOf(arg); dup {
					return Result{}, false, nil // duplicate enqueue value
				}
				o.enq = true
				enqs.put(arg, len(ops))
			case op == "deq" && arg == "":
			default:
				return Result{}, false, nil
			}
			open[a.Client] = len(ops)
			ops = append(ops, o)
		case trace.Res:
			i, busy := open[a.Client]
			if !busy || t[ops[i].inv].Input != a.Input {
				return notWF(idx)
			}
			ops[i].res = int32(idx)
			delete(open, a.Client)
		default:
			return notWF(idx)
		}
	}
	if len(open) > 0 {
		return Result{}, false, nil // pending operation: incomplete trace
	}

	// Pass 2: per-operation semantics — conditions (a) and the output
	// grammar. A dequeue and the enqueue of the value it returned become
	// each other's peer.
	matched := 0
	for i := range ops {
		o := &ops[i]
		out := t[o.res].Output
		if o.enq {
			if out != adt.WriteOutput() {
				return reject, true, nil
			}
			continue
		}
		vop, varg, ok := strings.Cut(string(out), ":")
		if !ok || vop != "v" {
			return reject, true, nil // dequeues can only ever output "v:x"
		}
		if varg == string(adt.Bottom) {
			return Result{}, false, nil // empty dequeue: outside the fragment
		}
		ei, ok := enqOf(varg)
		if !ok {
			return reject, true, nil // value never enqueued
		}
		e := &ops[ei]
		if e.peer >= 0 {
			return reject, true, nil // distinct values dequeue at most once
		}
		if o.res < e.inv {
			return reject, true, nil // dequeued before its enqueue existed
		}
		e.peer, o.peer = int32(i), int32(ei)
		matched++
	}

	// Condition (c): an enqueued-but-never-dequeued value must not
	// wholly precede any dequeued value's enqueue. The same walk lists
	// the dequeued values' enqueues for pass 3.
	byEnqRes := make([]int, 0, matched)
	minUnmatchedRes, maxMatchedInv := int32(-1), int32(-1)
	for i := range ops {
		e := &ops[i]
		if !e.enq {
			continue
		}
		if e.peer >= 0 {
			byEnqRes = append(byEnqRes, i)
			maxMatchedInv = e.inv // ops is in invocation order
		} else if minUnmatchedRes < 0 || e.res < minUnmatchedRes {
			minUnmatchedRes = e.res
		}
	}
	if minUnmatchedRes >= 0 && minUnmatchedRes < maxMatchedInv {
		return reject, true, nil
	}

	// Pass 3: condition (b). For each dequeued value v, the largest
	// dequeue invocation among values whose enqueue responded before
	// enq(v) was invoked must not exceed deq(v)'s response. byEnqInv is
	// as built, in invocation order; byEnqRes is the same by response.
	byEnqInv := slices.Clone(byEnqRes)
	slices.SortFunc(byEnqRes, func(i, j int) int { return int(ops[i].res - ops[j].res) })
	maxDeqInv, ptr := int32(-1), 0
	for _, i := range byEnqInv {
		e := &ops[i]
		for ptr < len(byEnqRes) && ops[byEnqRes[ptr]].res < e.inv {
			if d := ops[ops[byEnqRes[ptr]].peer].inv; d > maxDeqInv {
				maxDeqInv = d
			}
			ptr++
		}
		if maxDeqInv >= 0 && ops[e.peer].res < maxDeqInv {
			return reject, true, nil
		}
	}

	r := Result{OK: true, Nodes: len(t)}
	if set.Witness {
		r.Witness = queueWitness(t, ops)
	}
	return r, true, nil
}

// queueOp is one queue operation's interval summary (fastQueueCheck
// pass 1): the trace indices of its invocation and response, 16 bytes
// in all. Its input, output and enqueue value are read from the trace
// where they lie.
type queueOp struct {
	inv, res int32 // res is -1 while the operation is open
	// peer is the position in ops of the operation at the value's other
	// end (pass 2): an enqueue's is the dequeue that returned its value,
	// a dequeue's the enqueue of the value it returned; -1 when none.
	peer int32
	enq  bool
}

// enqArg is the untagged value of the enqueue input in.
func enqArg(in trace.Value) string {
	_, arg, _ := strings.Cut(string(adt.Untag(in)), ":")
	return arg
}

// fastQueueWitnessCap bounds the queue core's witness assembly: the
// linear-extension step below is quadratic in the dequeued-value
// count, so past the cap a positive verdict reports an empty Witness
// (documented at the dispatch layer; large hunt runs disable witnesses
// anyway).
const fastQueueWitnessCap = 4096

// queueWitness assembles a Lin witness for a trace fastQueueCheck has
// already proven linearizable. The matched values are ordered by a
// common linear extension τ of the three forced precedences —
// res(enq u) < inv(enq v), res(deq u) < inv(deq v), and
// res(deq u) < inv(enq v) each force u before v in FIFO order — via
// Kahn's algorithm (a linearization exists, so the union digraph is
// acyclic); unmatched values follow all matched ones, sorted by
// enqueue invocation (condition (c) makes that placement real-time
// consistent). A single sweep over the responses in trace order then
// linearizes lazily: each operation at its own response, forced
// helpers — τ-earlier enqueues and dequeues still in flight — just
// before, every linearization point provably inside its operation's
// interval. Returns nil past fastQueueWitnessCap (or, defensively, if
// no extension is found).
func queueWitness(t trace.Trace, ops []queueOp) Witness {
	// rem holds the matched values still to place, as the positions of
	// their enqueues, by enqueue invocation; unmatched the others.
	var rem, unmatched []int
	for i := range ops {
		switch {
		case !ops[i].enq:
		case ops[i].peer >= 0:
			rem = append(rem, i)
		default:
			unmatched = append(unmatched, i)
		}
	}
	if len(rem)+len(unmatched) > fastQueueWitnessCap {
		return nil
	}
	tau := make([]int, 0, len(rem))
	for len(rem) > 0 {
		pick := -1
		for i, vi := range rem {
			ve, vd := &ops[vi], &ops[ops[vi].peer]
			free := true
			for _, ui := range rem {
				if ui == vi {
					continue
				}
				ue, ud := &ops[ui], &ops[ops[ui].peer]
				if ue.res < ve.inv || ud.res < vd.inv || ud.res < ve.inv {
					free = false
					break
				}
			}
			if free {
				pick = i
				break
			}
		}
		if pick < 0 {
			return nil // defensive: the verdict proved an extension exists
		}
		tau = append(tau, rem[pick])
		rem = append(rem[:pick], rem[pick+1:]...)
	}

	// Enqueue linearization order: τ's matched values, then the
	// unmatched ones by invocation. enqPos and tauPos are indexed by the
	// enqueue's position in ops.
	enqOrder := append(append(make([]int, 0, len(tau)+len(unmatched)), tau...), unmatched...)
	enqPos := make([]int, len(ops))
	for i, e := range enqOrder {
		enqPos[e] = i
	}
	tauPos := make([]int, len(ops))
	for i, e := range tau {
		tauPos[e] = i
	}

	// Sweep the responses in trace order; pos[op] is the claimed chain
	// prefix once the op linearizes.
	byRes := make([]int, len(ops))
	for i := range byRes {
		byRes[i] = i
	}
	slices.SortFunc(byRes, func(i, j int) int { return int(ops[i].res - ops[j].res) })
	var chain trace.History
	pos := make([]int, len(ops))
	eptr, dptr := 0, 0
	linEnqsThrough := func(target int) {
		for eptr <= target {
			e := enqOrder[eptr]
			chain = append(chain, t[ops[e].inv].Input)
			pos[e] = len(chain)
			eptr++
		}
	}
	w := Witness{}
	for _, oi := range byRes {
		o := &ops[oi]
		if o.enq {
			linEnqsThrough(enqPos[oi])
		} else {
			if o.peer < 0 {
				return nil // defensive: pass 2 matched every dequeue
			}
			for target := tauPos[o.peer]; dptr <= target; dptr++ {
				e := tau[dptr]
				linEnqsThrough(enqPos[e])
				chain = append(chain, t[ops[ops[e].peer].inv].Input)
				pos[ops[e].peer] = len(chain)
			}
		}
		w[int(o.res)] = chain[:pos[oi]].Clone()
	}
	return w
}

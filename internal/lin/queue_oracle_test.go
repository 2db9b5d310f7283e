package lin

import (
	"slices"
	"strings"

	"repro/internal/adt"
	"repro/internal/trace"
)

// oneShotQueue is the queue's former one-shot fast path, kept as a test
// oracle for the streaming core (fastQueue): the matched
// enqueue/dequeue segment analysis of Bouajjani–Emmi–Enea–Hamza over a
// complete trace. Its fragment is the streaming core's restricted to
// complete traces: every operation responded, inputs pairwise distinct,
// untagged enqueue values pairwise distinct, no dequeue reporting empty
// (decided is false outside it). Inside it, with distinct values, a
// linearization exists iff
//
//	(a) every dequeued value was enqueued exactly once, dequeued at
//	    most once, and its dequeue does not respond before its enqueue
//	    is invoked;
//	(b) no pair of dequeued values u, v has enq(u) responding before
//	    enq(v) is invoked while deq(v) responds before deq(u) is
//	    invoked — FIFO would need u out first, real time forbids it;
//	(c) no value enqueued-and-responded but never dequeued precedes
//	    (enqueue response before enqueue invocation) a dequeued value.
//
// Condition (b) is an O(n log n) sweep: values by enqueue invocation, a
// pointer over enqueue responses keeping the running maximum dequeue
// invocation. A well-formedness failure is a decided negative verdict,
// as in the cores.
func oneShotQueue(t trace.Trace) (ok, decided bool) {
	type op struct {
		inv, res, peer int
		enq            bool
	}
	var ops []op
	open := map[trace.ClientID]int{}
	seen := map[trace.Value]bool{}
	enqs := map[string]int{} // untagged value → its enqueue
	for idx, a := range t {
		switch a.Kind {
		case trace.Inv:
			if _, busy := open[a.Client]; busy {
				return false, true
			}
			if seen[a.Input] {
				return false, false
			}
			seen[a.Input] = true
			kind, arg, ok := strings.Cut(string(adt.Untag(a.Input)), ":")
			o := op{inv: idx, res: -1, peer: -1}
			switch {
			case !ok:
				return false, false
			case kind == "enq":
				if _, dup := enqs[arg]; dup || arg == "" || arg == string(adt.Bottom) || strings.ContainsRune(arg, '\x00') {
					return false, false
				}
				o.enq = true
				enqs[arg] = len(ops)
			case kind == "deq" && arg == "":
			default:
				return false, false
			}
			open[a.Client] = len(ops)
			ops = append(ops, o)
		case trace.Res:
			i, busy := open[a.Client]
			if !busy || t[ops[i].inv].Input != a.Input {
				return false, true
			}
			ops[i].res = idx
			delete(open, a.Client)
		default:
			return false, true
		}
	}
	if len(open) > 0 {
		return false, false
	}
	// Condition (a) and the output grammar; a dequeue and the enqueue of
	// the value it returned become each other's peer.
	for i := range ops {
		o := &ops[i]
		out := t[o.res].Output
		if o.enq {
			if out != adt.WriteOutput() {
				return false, true
			}
			continue
		}
		kind, arg, ok := strings.Cut(string(out), ":")
		if !ok || kind != "v" {
			return false, true
		}
		if arg == string(adt.Bottom) {
			return false, false
		}
		ei, ok := enqs[arg]
		if !ok || ops[ei].peer >= 0 || o.res < ops[ei].inv {
			return false, true
		}
		ops[ei].peer, o.peer = i, ei
	}
	// Condition (c).
	var byEnqInv []int
	minUnmatchedRes, maxMatchedInv := -1, -1
	for i, e := range ops {
		switch {
		case !e.enq:
		case e.peer >= 0:
			byEnqInv = append(byEnqInv, i)
			maxMatchedInv = e.inv
		case minUnmatchedRes < 0 || e.res < minUnmatchedRes:
			minUnmatchedRes = e.res
		}
	}
	if minUnmatchedRes >= 0 && minUnmatchedRes < maxMatchedInv {
		return false, true
	}
	// Condition (b).
	byEnqRes := slices.Clone(byEnqInv)
	slices.SortFunc(byEnqRes, func(i, j int) int { return ops[i].res - ops[j].res })
	maxDeqInv, ptr := -1, 0
	for _, i := range byEnqInv {
		for ptr < len(byEnqRes) && ops[byEnqRes[ptr]].res < ops[i].inv {
			maxDeqInv = max(maxDeqInv, ops[ops[byEnqRes[ptr]].peer].inv)
			ptr++
		}
		if maxDeqInv >= 0 && ops[ops[i].peer].res < maxDeqInv {
			return false, true
		}
	}
	return true, true
}

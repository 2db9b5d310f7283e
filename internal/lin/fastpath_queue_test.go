package lin

import (
	"context"
	"math/rand"
	"slices"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
)

// The streaming queue core (DESIGN.md, decision 33) held to the exact
// engine on every prefix, to the former one-shot analysis on complete
// traces, and to its memory bound on a long stream.

// qe and qd are the inputs of an enqueue of v and of a dequeue tagged
// tag.
func qe(v string) trace.Value   { return adt.EnqInput(trace.Value(v)) }
func qd(tag string) trace.Value { return adt.Tag(adt.DeqInput(), tag) }

// agreesOnEveryPrefix feeds tr to a fast session (witnesses as asked)
// and, prefix by prefix, compares its verdict with an exact session's;
// it returns the fast session's final verdict and whether the session
// stayed on the fast path.
func agreesOnEveryPrefix(t *testing.T, tr trace.Trace, witness bool) (check.Verdict, bool) {
	t.Helper()
	ctx := context.Background()
	opts := []check.Option{check.WithWitness(witness), check.WithBudget(1_000_000)}
	fast, exact := NewSession(ctx, adt.Queue{}, opts...), NewSession(ctx, adt.Queue{}, append(opts, check.WithExact(true))...)
	for k, a := range tr {
		if err := fast.Feed(a); err != nil {
			t.Fatal(err)
		}
		if err := exact.Feed(a); err != nil {
			t.Fatal(err)
		}
		if fast.Verdict() != exact.Verdict() {
			t.Fatalf("prefix %d: fast %v, exact %v\n%v", k+1, fast.Verdict(), exact.Verdict(), tr[:k+1])
		}
		if r, _ := fast.Result(); witness && r.OK {
			if err := VerifyWitness(adt.Queue{}, tr[:k+1], r.Witness); err != nil {
				t.Fatalf("prefix %d: %v\n%v", k+1, err, tr[:k+1])
			}
		}
	}
	return fast.Verdict(), fast.fast != nil
}

// TestQueueOwedValues pins conditions (b) and (c) on hand histories: x
// and y are enqueued in sequence, so a dequeue returning y makes x owed,
// and only a dequeue invoked before that response can return it.
func TestQueueOwedValues(t *testing.T) {
	ok := adt.WriteOutput()
	inv := func(c trace.ClientID, in trace.Value) trace.Action { return trace.Invoke(c, 1, in) }
	res := func(c trace.ClientID, in, out trace.Value) trace.Action { return trace.Response(c, 1, in, out) }
	xy := trace.Trace{inv("p", qe("x")), res("p", qe("x"), ok), inv("p", qe("y")), res("p", qe("y"), ok)}
	vx, vy, vz := adt.ReadOutput("x"), adt.ReadOutput("y"), adt.ReadOutput("z")
	for _, tc := range []struct {
		name string
		tr   trace.Trace
		want check.Verdict
	}{
		{"an open dequeue absorbs the owed value", trace.Trace{
			inv("a", qd("a")), inv("b", qd("b")), res("b", qd("b"), vy), res("a", qd("a"), vx),
		}, check.Linearizable},
		{"no open dequeue to absorb it", trace.Trace{
			inv("b", qd("b")), res("b", qd("b"), vy),
		}, check.NotLinearizable},
		// a is invoked right after the response that made x owed: it has
		// the same epoch, and cannot return x.
		{"a dequeue invoked at the deadline does not absorb", trace.Trace{
			inv("c", qd("c")),
			inv("b", qd("b")), res("b", qd("b"), vy),
			inv("a", qd("a")),
			res("c", qd("c"), vx), res("a", qd("a"), vz),
		}, check.NotLinearizable},
		// c absorbs x, but returns z instead, which leaves x owed with only
		// a, invoked after the deadline, open.
		{"the absorbing dequeue returns another value", trace.Trace{
			inv("p", qe("z")), res("p", qe("z"), ok),
			inv("c", qd("c")),
			inv("b", qd("b")), res("b", qd("b"), vy),
			inv("a", qd("a")),
			res("c", qd("c"), vz),
		}, check.NotLinearizable},
		// m rises past x while a is open: a's snapshot is from its
		// invocation, so it may still return x.
		{"the snapshot is taken at the invocation", trace.Trace{
			inv("a", qd("a")),
			inv("b", qd("b")), res("b", qd("b"), vy),
			res("a", qd("a"), vx),
		}, check.Linearizable},
		{"a dequeue invoked after the deadline returns the owed value", trace.Trace{
			inv("c", qd("c")),
			inv("b", qd("b")), res("b", qd("b"), vy),
			inv("a", qd("a")), res("a", qd("a"), vx),
		}, check.NotLinearizable},
		{"two owed values, two open dequeues", trace.Trace{
			inv("p", qe("z")), res("p", qe("z"), ok),
			inv("a", qd("a")), inv("c", qd("c")),
			inv("b", qd("b")), res("b", qd("b"), vz),
			res("c", qd("c"), vx), res("a", qd("a"), vy),
		}, check.Linearizable},
		{"two owed values, one open dequeue", trace.Trace{
			inv("p", qe("z")), res("p", qe("z"), ok),
			inv("a", qd("a")),
			inv("b", qd("b")), res("b", qd("b"), vz),
		}, check.NotLinearizable},
		{"a value returned while its enqueue is open", trace.Trace{
			inv("p", qe("z")), inv("a", qd("a")), res("a", qd("a"), vx),
			inv("a", qd("a2")), res("a", qd("a2"), vy), inv("a", qd("a3")), res("a", qd("a3"), vz),
			res("p", qe("z"), ok),
		}, check.Linearizable},
		{"a value returned twice", trace.Trace{
			inv("a", qd("a")), res("a", qd("a"), vx), inv("a", qd("a2")), res("a", qd("a2"), vx),
		}, check.NotLinearizable},
		{"a value returned before its enqueue is invoked", trace.Trace{
			inv("a", qd("a")), res("a", qd("a"), vz), inv("p", qe("z")), res("p", qe("z"), ok),
		}, check.NotLinearizable},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := append(xy[:len(xy):len(xy)], tc.tr...)
			for _, witness := range []bool{true, false} {
				got, stayed := agreesOnEveryPrefix(t, tr, witness)
				if got != tc.want || !stayed {
					t.Fatalf("verdict %v (fast path kept: %v), want %v", got, stayed, tc.want)
				}
			}
		})
	}
}

// randomQueueTrace is a complete queue history over up to four clients:
// a simulated queue whose operations take effect at random points of
// their intervals, with an occasional wrong output. Of the 2 000 traces
// seed 33 makes, 1 685 are linearizable, and 198 of those have an open
// dequeue absorbing an owed value on the way. With reuse, an enqueue
// takes, half the time there is one, a value whose enqueue and dequeue
// have both responded, under a new tag.
func randomQueueTrace(r *rand.Rand, n int, reuse bool) trace.Trace {
	type op struct {
		in, out, val trace.Value
		open, eff    bool
	}
	clients := 2 + r.Intn(3)
	ops := make([]op, clients)
	var fifo, enqueued, retired []trace.Value
	ends := map[trace.Value]int{} // responded ends of a value's latest pair
	end := func(v trace.Value) {
		if ends[v]++; ends[v] == 2 && reuse {
			retired = append(retired, v)
		}
	}
	var tr trace.Trace
	claims := 0 // open dequeues not yet applied: each has an element
	for seq := 0; len(tr) < n || func() bool {
		for _, o := range ops {
			if o.open {
				return true
			}
		}
		return false
	}(); seq++ {
		c := r.Intn(clients)
		o, id := &ops[c], trace.ClientID("c"+strconv.Itoa(c))
		switch {
		case !o.open && len(tr) < n:
			o.in, o.open, o.eff = qe("v"+strconv.Itoa(seq)), true, false
			if len(fifo) > claims && r.Intn(2) == 0 {
				o.in = qd(strconv.Itoa(seq))
				claims++
			} else if len(retired) > 0 && r.Intn(2) == 0 {
				k := r.Intn(len(retired))
				o.in = adt.Tag(qe(string(retired[k])), strconv.Itoa(seq))
				delete(ends, retired[k])
				retired = slices.Delete(retired, k, k+1)
			}
			tr = append(tr, trace.Invoke(id, 1, o.in))
		case !o.open:
		case !o.eff:
			if adt.Untag(o.in) != adt.DeqInput() {
				fifo = append(fifo, trace.Value(enqArg(o.in)))
				enqueued = append(enqueued, trace.Value(enqArg(o.in)))
				o.out, o.eff = adt.WriteOutput(), true
			} else {
				o.val, o.out, o.eff, fifo = fifo[0], adt.ReadOutput(fifo[0]), true, fifo[1:]
				claims--
			}
		default:
			out := o.out
			if r.Intn(60) == 0 && len(enqueued) > 0 {
				out = adt.ReadOutput(enqueued[r.Intn(len(enqueued))])
			}
			tr = append(tr, trace.Response(id, 1, o.in, out))
			o.open = false
			if adt.Untag(o.in) != adt.DeqInput() {
				end(trace.Value(enqArg(o.in)))
			} else if out == o.out {
				end(o.val)
			}
		}
	}
	return tr
}

// TestQueueCoreMatchesOracle: on random complete histories the streaming
// core (one-shot Check), the former one-shot analysis (oneShotQueue)
// and the exact engine give the same verdict, and the core's witness
// verifies; on every prefix, open operations and all, a fast session
// agrees with an exact one without leaving the fast path (every tenth
// history with witnesses, which verify too). A second pass draws
// histories that enqueue a value dequeued at both ends again under a new
// tag, the fragment's one repeat (DESIGN.md, decision 36), and holds
// every prefix of each to the exact engine with witnesses on and off.
func TestQueueCoreMatchesOracle(t *testing.T) {
	ctx := context.Background()
	for _, reuse := range []bool{false, true} {
		r := rand.New(rand.NewSource(33))
		var decided, rejected, repeating int
		for iter := 0; iter < 2000; iter++ {
			tr := randomQueueTrace(r, 8+r.Intn(28), reuse)
			fast, err := Check(ctx, adt.Queue{}, tr)
			if err != nil {
				t.Fatal(err)
			}
			exact, err := Check(ctx, adt.Queue{}, tr, check.WithWitness(false), check.WithExact(true))
			if err != nil {
				t.Fatal(err)
			}
			if fast.OK != exact.OK || fast.Reason != exact.Reason {
				t.Fatalf("reuse %v, iter %d: core %v %q, exact %v %q\n%v", reuse, iter, fast.OK, fast.Reason, exact.OK, exact.Reason, tr)
			}
			if fast.OK {
				if err := VerifyWitness(adt.Queue{}, tr, fast.Witness); err != nil {
					t.Fatalf("reuse %v, iter %d: %v\n%v", reuse, iter, err, tr)
				}
			}
			witnesses := []bool{iter%10 == 0}
			if reuse {
				witnesses = []bool{true, false}
			}
			for _, witness := range witnesses {
				if _, stayed := agreesOnEveryPrefix(t, tr, witness); !stayed {
					t.Fatalf("reuse %v, iter %d: the session left the fast path (witness %v)\n%v", reuse, iter, witness, tr)
				}
			}
			if reuse {
				if slices.ContainsFunc(tr, func(a trace.Action) bool {
					return a.Kind == trace.Inv && adt.Untag(a.Input) != adt.DeqInput() && adt.Untag(a.Input) != a.Input
				}) {
					repeating++
					if !exact.OK {
						rejected++
					}
				}
				continue
			}
			if ok, in := oneShotQueue(tr); in {
				decided++
				if ok != exact.OK {
					t.Fatalf("iter %d: one-shot %v, exact %v\n%v", iter, ok, exact.OK, tr)
				}
				if !ok {
					rejected++
				}
			}
		}
		if reuse {
			t.Logf("%d of 2000 histories enqueue a value again, %d of them not linearizable", repeating, rejected)
			if repeating < 1000 || rejected < 100 || repeating-rejected < 500 {
				t.Fatalf("%d repeating, %d rejected: the histories do not exercise the repeat", repeating, rejected)
			}
			continue
		}
		t.Logf("%d of 2000 histories inside the one-shot fragment, %d of them rejected", decided, rejected)
		if decided < 1500 || rejected < 200 || decided-rejected < 500 {
			t.Fatalf("%d decided, %d rejected: the histories do not exercise the fragment", decided, rejected)
		}
	}
}

// TestQueueRestart pins the queue's restart at a cut (DESIGN.md, decision
// 35) on hand histories held to the exact engine on every prefix: after
// sixteen sequential actions that dequeue x and leave y and z queued, a
// witness-off session has cut, rebuilt its value table (five values, two
// of them queued) and so forgotten x and the dequeue inputs, but not y
// and z, which its seed replays.
func TestQueueRestart(t *testing.T) {
	ok := adt.WriteOutput()
	op := func(in, out trace.Value) trace.Trace {
		return trace.Trace{trace.Invoke("p", 1, in), trace.Response("p", 1, in, out)}
	}
	var prefix trace.Trace
	for i, v := range []string{"x", "a", "b"} {
		prefix = append(prefix, op(qe(v), ok)...)
		prefix = append(prefix, op(qd(strconv.Itoa(i)), adt.ReadOutput(trace.Value(v)))...)
	}
	prefix = append(prefix, append(op(qe("y"), ok), op(qe("z"), ok)...)...)
	for _, tc := range []struct {
		name string
		tail trace.Trace
		fast bool
	}{
		{"a value dequeued before the cut enqueued again", append(op(qe("x"), ok), op(qd("0"), adt.ReadOutput("y"))...), true},
		{"a value queued at the cut enqueued again", append(op(qe("y"), ok), op(qd("9"), adt.ReadOutput("y"))...), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, fast := agreesOnEveryPrefix(t, append(prefix[:len(prefix):len(prefix)], tc.tail...), false); fast != tc.fast {
				t.Fatalf("on the fast path %v, want %v", fast, tc.fast)
			}
		})
	}
}

// heldRecords is the number of records core keeps: the values invoked and not
// yet retired, plus those kept for the seed.
func heldRecords(core *fastQueue) int { return len(core.vals) - len(core.free) }

// TestQueueCutRetention: a 1M-action stream whose queue grows past 50k
// values, with a quiescent point every 100 actions, stays on the fast
// path, and at every quiescent point holds one log chunk of at most
// recChunk actions and no full chunk before it, no record beyond the
// queued values and those dequeued since the last cut, no more inputs
// seen than actions since that cut, and no more index entries than
// twice the values queued at the cut plus actions since (DESIGN.md,
// decision 35).
func TestQueueCutRetention(t *testing.T) {
	const n = 1_000_000
	s := NewSession(context.Background(), adt.Queue{}, check.WithWitness(false))
	ok := adt.WriteOutput()
	var fifo []trace.Value
	var lastCut, since, points, peak int
	feed := func(a trace.Action) {
		if err := s.Feed(a); err != nil {
			t.Fatal(err)
		}
		switch {
		case s.cutFed != lastCut:
			lastCut, since = s.cutFed, 0
		case a.Kind == trace.Res && adt.Untag(a.Input) == adt.DeqInput():
			since++
		}
	}
	pair := func(c trace.ClientID, in trace.Value) {
		out := ok
		if adt.Untag(in) == adt.DeqInput() {
			out = adt.ReadOutput(fifo[0])
			fifo = fifo[1:]
		} else {
			fifo = append(fifo, trace.Value(enqArg(in)))
		}
		feed(trace.Invoke(c, 1, in))
		feed(trace.Response(c, 1, in, out))
	}
	for b := 0; len(fifo) == 0 || s.Len() < n; b++ {
		id := strconv.Itoa(b)
		// c0 holds an enqueue open across 48 operations of c1, 30 of them
		// enqueues; it takes effect at its response.
		held := qe("h" + id)
		feed(trace.Invoke("c0", 1, held))
		for i := 0; i < 48; i++ {
			u := id + "." + strconv.Itoa(i)
			if i%8 < 5 {
				pair("c1", qe("v"+u))
			} else {
				pair("c1", qd(u))
			}
		}
		fifo = append(fifo, "h"+id)
		feed(trace.Response("c0", 1, held, ok))
		core := s.fast.(*fastQueue)
		points++
		peak = max(peak, len(fifo))
		if cap(s.rec) > recChunk || len(s.recFull) != 0 {
			t.Fatalf("quiescent point %d: log of %d full chunks and one of capacity %d", points, len(s.recFull), cap(s.rec))
		}
		if heldRecords(core) > len(fifo)+since || len(core.q)-core.qh != len(fifo) {
			t.Fatalf("quiescent point %d: %d records and %d queue slots for %d queued values, %d dequeued since the cut",
				points, heldRecords(core), len(core.q)-core.qh, len(fifo), since)
		}
		// The values queued at the cut are those queued now, less the
		// stretch's enqueues, plus its dequeues: fewer than len(fifo) plus
		// the stretch's actions.
		stretch := s.Len() - s.cutFed
		if bound := 2*(len(fifo)+stretch) + stretch; s.seen.n > stretch || core.index.n > bound {
			t.Fatalf("quiescent point %d: %d inputs and %d index entries, %d queued values and %d actions since the cut",
				points, s.seen.n, core.index.n, len(fifo), stretch)
		}
		pair("c0", qd("t"+id))
	}
	if s.Nodes() != s.Len() || s.Verdict() != check.Linearizable || peak < 50_000 {
		t.Fatalf("%d nodes over %d actions, verdict %v, %d values queued at most", s.Nodes(), s.Len(), s.Verdict(), peak)
	}
	if s.cutFed < s.Len()-recChunk-100 {
		t.Fatalf("last cut after %d of %d actions", s.cutFed, s.Len())
	}
}

// TestQueueSteadyStateAllocatesNothing: after 5 000 values, a queue two
// deep — enqueue, dequeue, cut — allocates nothing per action: records,
// the queue's slots and the tables, which each cut rebuilds from the
// values still queued (DESIGN.md, decision 35), are all reused.
func TestQueueSteadyStateAllocatesNothing(t *testing.T) {
	c := newFastQueue(false, false)
	// Made up front: the inputs and outputs are the caller's.
	var enqs, deqs, outs [6000]trace.Value
	for i := range enqs {
		v := "v" + strconv.Itoa(i)
		enqs[i], deqs[i], outs[i] = qe(v), qd(v), adt.ReadOutput(trace.Value(v))
	}
	idx, head, next := 0, 0, 0
	enq := func() {
		in := enqs[next]
		next++
		slot, _ := c.Inv(in, idx)
		c.Res(in, adt.WriteOutput(), slot, idx, idx+1)
		idx += 2
	}
	enq()
	step := func() {
		enq()
		slot, _ := c.Inv(deqs[head], idx)
		if st := c.Res(deqs[head], outs[head], slot, idx, idx+1); st != FastOK {
			t.Fatalf("dequeue %d: status %v", head, st)
		}
		head++
		idx += 2
		c.cutStates()
	}
	for next < 5000 {
		step()
	}
	if n := testing.AllocsPerRun(200, step); n != 0 {
		t.Errorf("a steady-state step allocates %.2f times", n)
	}
}

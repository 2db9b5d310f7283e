package lin

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
)

// The fast path's replay log is chunked (recChunk actions a chunk), so
// these tests put the fragment exit on each side of a chunk boundary and
// hold the session, after its fallback, to an exact session fed the same
// actions: verdict, search nodes, length, and the same again after
// further feeds.

// seqRegister appends n sequential register operations by client c to
// tr: every third writes a fresh value, the others read the current one
// under a unique tag. seq numbers the operations across calls.
func seqRegister(tr trace.Trace, c trace.ClientID, n int, seq *int, cur *trace.Value) trace.Trace {
	for i := 0; i < n; i++ {
		*seq++
		id := strconv.Itoa(*seq)
		if *seq%3 == 1 {
			in := adt.WriteInput(trace.Value("v" + id))
			tr = append(tr, trace.Invoke(c, 1, in), trace.Response(c, 1, in, adt.WriteOutput()))
			*cur = trace.Value("v" + id)
		} else {
			in := adt.Tag(adt.ReadInput(), id)
			tr = append(tr, trace.Invoke(c, 1, in), trace.Response(c, 1, in, adt.ReadOutput(*cur)))
		}
	}
	return tr
}

// registerExitAt builds a register stream of at least 2 500 actions,
// linearizable throughout, whose action exit is the first outside the
// fast fragment: an invocation repeating an earlier tagged read (dupValue
// false) or writing an already-written value under a new tag (dupValue
// true). tail further actions follow the exit's response.
func registerExitAt(exit int, dupValue bool, tail int) trace.Trace {
	var tr trace.Trace
	seq, cur := 0, trace.Value("")
	if exit%2 == 1 {
		// A write that never responds shifts c1's invocations to odd
		// indices. Nothing reads its value, so it costs the exact engine
		// one extra configuration.
		tr = append(tr, trace.Invoke("c2", 1, adt.WriteInput("held")))
	}
	tr = seqRegister(tr, "c1", (exit-len(tr))/2, &seq, &cur)
	if len(tr) != exit {
		panic("registerExitAt: exit index unreachable")
	}
	var in, out trace.Value
	if dupValue {
		in, out = adt.Tag(adt.WriteInput("v1"), "again"), adt.WriteOutput()
		cur = "v1"
	} else {
		in, out = adt.Tag(adt.ReadInput(), "2"), adt.ReadOutput(cur)
	}
	tr = append(tr, trace.Invoke("c1", 1, in), trace.Response("c1", 1, in, out))
	for len(tr) < 2500+tail {
		tr = seqRegister(tr, "c1", 1, &seq, &cur)
	}
	return tr
}

// mutexSticksAt builds a mutex stream whose greedy simulation sticks at
// action exit with neither counting condition violated. An acquire h is
// invoked first and never responds until the end; after a long
// sequential lock/unlock prefix, an unlock that finds the lock free takes
// h as its helper, and then two acquires respond with no release between
// them and none pending. The counters still allow it (h's acquire is
// unresponded), so the core exits and only the exact engine can say that
// no linearization exists. Up to three more acquires that never respond
// pad the exit onto the requested index. tail further actions follow.
func mutexSticksAt(exit, tail int) trace.Trace {
	lk := func(tag string) trace.Value { return adt.Tag(adt.LockInput(), tag) }
	ul := func(tag string) trace.Value { return adt.Tag(adt.UnlockInput(), tag) }
	ok := adt.WriteOutput()
	var tr trace.Trace
	pair := func(c trace.ClientID, in trace.Value) {
		tr = append(tr, trace.Invoke(c, 1, in), trace.Response(c, 1, in, ok))
	}
	const gadget = 9 // actions between the prefix and the sticking response
	tr = append(tr, trace.Invoke("c2", 1, lk("h")))
	for pad := 0; (exit-gadget-len(tr))%4 != 0; pad++ {
		tr = append(tr, trace.Invoke(trace.ClientID("pad"+strconv.Itoa(pad)), 1, lk("pad"+strconv.Itoa(pad))))
	}
	for i := 0; len(tr) < exit-gadget; i++ {
		pair("c1", lk("p"+strconv.Itoa(i)))
		pair("c1", ul("p"+strconv.Itoa(i)))
	}
	pair("c3", lk("a"))
	tr = append(tr,
		trace.Invoke("c3", 1, ul("a")),
		trace.Invoke("c1", 1, ul("b")),
		trace.Response("c3", 1, ul("a"), ok),
		trace.Response("c1", 1, ul("b"), ok), // the lock is free: h becomes its helper
	)
	pair("c1", lk("c"))
	tr = append(tr, trace.Invoke("c1", 1, lk("d")))
	if len(tr) != exit {
		panic("mutexSticksAt: exit index unreachable")
	}
	tr = append(tr, trace.Response("c1", 1, lk("d"), ok))
	for i := 0; len(tr) < exit+1+tail; i++ {
		pair("c3", ul("t"+strconv.Itoa(i)))
	}
	return tr
}

func TestFastFallbackAcrossChunks(t *testing.T) {
	type stream struct {
		name string
		f    adt.Folder
		tr   trace.Trace
		exit int
	}
	const tail = 100
	var streams []stream
	for _, exit := range []int{recChunk - 1, recChunk, recChunk + 1, 2*recChunk + 1} {
		at := "@" + strconv.Itoa(exit)
		streams = append(streams,
			stream{"register/dup-input" + at, adt.Register{}, registerExitAt(exit, false, tail), exit},
			stream{"register/dup-value" + at, adt.Register{}, registerExitAt(exit, true, tail), exit},
			stream{"mutex/stuck" + at, adt.Mutex{}, mutexSticksAt(exit, tail), exit})
	}
	budgets := map[string][]check.Option{
		"lifetime": {check.WithBudget(1_000_000)},
		"per-feed": {check.WithBudget(10_000), check.WithFeedBudget(true)},
	}
	for _, st := range streams {
		for bname, opts := range budgets {
			t.Run(st.name+"/"+bname, func(t *testing.T) {
				ctx := context.Background()
				fs := NewSessionFast(ctx, st.f, opts...)
				ex := NewSession(ctx, st.f, opts...)
				same := func(when string) {
					t.Helper()
					fr, ferr := fs.Result()
					er, eerr := ex.Result()
					if ferr != nil || eerr != nil {
						t.Fatalf("%s: fast session error %v, exact session error %v", when, ferr, eerr)
					}
					if fs.Verdict() != ex.Verdict() || fr.OK != er.OK || fr.Reason != er.Reason {
						t.Fatalf("%s: fast session %v (%q), exact session %v (%q)",
							when, fs.Verdict(), fr.Reason, ex.Verdict(), er.Reason)
					}
					// The budget-charged search nodes are the exact session's;
					// Nodes adds, as documented, one per action the core took
					// before the exit.
					if fs.nodes != ex.nodes || fs.fastNodes != st.exit || fr.Nodes != er.Nodes+st.exit || fs.Len() != ex.Len() {
						t.Fatalf("%s: fast session %d search + %d fast-path nodes over %d actions, exact session %d over %d",
							when, fs.nodes, fs.fastNodes, fs.Len(), er.Nodes, ex.Len())
					}
				}
				for i, a := range st.tr {
					if fs.fast == nil != (i > st.exit) {
						t.Fatalf("action %d: on the fast path %v, want the exit at action %d", i, fs.fast != nil, st.exit)
					}
					if err := fs.Feed(a); err != nil {
						t.Fatalf("fast session feed %d: %v", i, err)
					}
					if err := ex.Feed(a); err != nil {
						t.Fatalf("exact session feed %d: %v", i, err)
					}
					if i == st.exit {
						if fs.rec != nil || fs.recFull != nil {
							t.Fatal("the replay log outlived the fallback")
						}
						same("after the fallback")
					}
				}
				if len(st.tr) < st.exit+tail {
					t.Fatalf("stream ends %d actions after its exit, want ≥ %d", len(st.tr)-st.exit, tail)
				}
				same("after the further feeds")
			})
		}
	}
}

// TestFastMutexOpsBounded: the mutex core forgets an operation at its
// response, so ops holds the open operations only — and takeOldest walks
// past responded ids when a helper is finally needed.
func TestFastMutexOpsBounded(t *testing.T) {
	lk := func(tag string) trace.Value { return adt.Tag(adt.LockInput(), tag) }
	ul := func(tag string) trace.Value { return adt.Tag(adt.UnlockInput(), tag) }
	ok := adt.WriteOutput()
	s := NewSessionFast(context.Background(), adt.Mutex{}, check.WithWitness(false))
	feed := func(a trace.Action) {
		t.Helper()
		if err := s.Feed(a); err != nil {
			t.Fatal(err)
		}
	}
	const pairs = 20_000
	for i := 0; i < pairs; i++ {
		id := strconv.Itoa(i)
		feed(trace.Invoke("c1", 1, lk(id)))
		feed(trace.Response("c1", 1, lk(id), ok))
		feed(trace.Invoke("c1", 1, ul(id)))
		if n := len(s.fast.(*fastMutex).ops); n != 1 {
			t.Fatalf("pair %d: %d operations in ops with one open", i, n)
		}
		feed(trace.Response("c1", 1, ul(id), ok))
	}
	// A release that finds the lock free takes the pending acquire as its
	// helper: every pool entry before it has responded and left ops.
	feed(trace.Invoke("c2", 1, lk("h")))
	feed(trace.Invoke("c1", 1, lk("x")))
	feed(trace.Response("c1", 1, lk("x"), ok))
	feed(trace.Invoke("c1", 1, ul("x")))
	feed(trace.Invoke("c3", 1, ul("y")))
	feed(trace.Response("c1", 1, ul("x"), ok))
	feed(trace.Response("c3", 1, ul("y"), ok))
	m, fast := s.fast.(*fastMutex)
	if !fast {
		t.Fatal("the stream left the fast path")
	}
	if len(m.ops) != 1 || !m.ops[4*pairs].assigned {
		t.Fatalf("ops = %d entries, want only the helper acquire (assigned)", len(m.ops))
	}
	feed(trace.Response("c2", 1, lk("h"), ok))
	if len(m.ops) != 0 {
		t.Fatalf("%d operations left in ops with none open", len(m.ops))
	}
	if v := s.Verdict(); v != check.Linearizable {
		t.Fatalf("verdict %v, want Linearizable", v)
	}
	if got := s.Nodes(); got != s.Len() {
		t.Fatalf("%d nodes for %d actions: the session left the fast path", got, s.Len())
	}
}

package lin

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
)

// The fast path's replay log is chunked (without cuts a chunk ends at
// every power of two up to recChunk actions and at every multiple of it
// after), so these tests put the fragment exit on each side of a chunk
// boundary and hold the session, after its fallback, to an exact session
// fed the same actions — or, when the session cut (witnesses off, a
// quiescent stream), to an exact session seeded with the last cut's
// states and fed what followed it: verdict, search nodes, length, and
// the same again after further feeds.

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
// invoked and never responds; after a long sequential lock/unlock
// prefix, an unlock that finds the lock free takes h as its helper, and
// then two acquires respond with no release between them and none
// pending. The counters still allow it (h's acquire is unresponded), so
// the core exits and only the exact engine can say that no
// linearization exists. h is invoked first, and up to three more
// acquires that never respond pad the exit onto the requested index —
// or, with late, h is invoked right after the prefix, which is then
// quiescent after every operation (exit must be 2 mod 4). tail further
// actions follow.
func mutexSticksAt(exit, tail int, late bool) trace.Trace {
	lk := func(tag string) trace.Value { return adt.Tag(adt.LockInput(), tag) }
	ul := func(tag string) trace.Value { return adt.Tag(adt.UnlockInput(), tag) }
	ok := adt.WriteOutput()
	var tr trace.Trace
	pair := func(c trace.ClientID, in trace.Value) {
		tr = append(tr, trace.Invoke(c, 1, in), trace.Response(c, 1, in, ok))
	}
	const gadget = 9 // actions between the prefix and the sticking response
	prefix := exit - gadget
	if late {
		prefix--
	} else {
		tr = append(tr, trace.Invoke("c2", 1, lk("h")))
		for pad := 0; (prefix-len(tr))%4 != 0; pad++ {
			tr = append(tr, trace.Invoke(trace.ClientID("pad"+strconv.Itoa(pad)), 1, lk("pad"+strconv.Itoa(pad))))
		}
	}
	for i := 0; len(tr) < prefix; i++ {
		pair("c1", lk("p"+strconv.Itoa(i)))
		pair("c1", ul("p"+strconv.Itoa(i)))
	}
	if late {
		tr = append(tr, trace.Invoke("c2", 1, lk("h")))
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

func TestFastFallbackAcrossChunks(t *testing.T) { fallbackAcrossChunks(t, true) }

// TestFastFallbackAcrossChunksNoWitness is the witness-off twin: the
// sequential register streams (even exits) and the mutex streams whose
// stuck acquire comes late cut at quiescent points, so their reference
// is seeded from the last cut; the others are never quiescent and replay
// from action 0.
func TestFastFallbackAcrossChunksNoWitness(t *testing.T) { fallbackAcrossChunks(t, false) }

func fallbackAcrossChunks(t *testing.T, witness bool) {
	type stream struct {
		name      string
		f         adt.Folder
		tr        trace.Trace
		exit      int
		quiescent bool // quiescent points before the exit: a witness-off session cuts
	}
	const tail = 100
	var streams []stream
	for _, exit := range []int{recChunk - 1, recChunk, recChunk + 1, 2*recChunk + 1} {
		at := "@" + strconv.Itoa(exit)
		// An odd exit puts a write that never responds first.
		streams = append(streams,
			stream{"register/dup-input" + at, adt.Register{}, registerExitAt(exit, false, tail), exit, exit%2 == 0},
			stream{"register/dup-value" + at, adt.Register{}, registerExitAt(exit, true, tail), exit, exit%2 == 0},
			stream{"mutex/stuck" + at, adt.Mutex{}, mutexSticksAt(exit, tail, false), exit, false})
	}
	for _, exit := range []int{recChunk - 2, recChunk + 2, 2*recChunk + 2} {
		streams = append(streams, stream{"mutex/stuck-late@" + strconv.Itoa(exit), adt.Mutex{}, mutexSticksAt(exit, tail, true), exit, true})
	}
	// Budgets are per fed action (DESIGN.md, decision 34): "lifetime" is
	// large enough for the whole stream's spend, "per-feed" for each
	// action's alone; the replay must decide under both.
	budgets := map[string][]check.Option{
		"lifetime": {check.WithBudget(1_000_000)},
		"per-feed": {check.WithBudget(10_000)},
	}
	for _, st := range streams {
		for bname, opts := range budgets {
			t.Run(st.name+"/"+bname, func(t *testing.T) {
				ctx := context.Background()
				opts := append(opts[:len(opts):len(opts)], check.WithWitness(witness))
				fs := NewSessionFast(ctx, st.f, opts...)
				var ex *Session // the reference, built at the exit
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
					if fs.meter.Nodes != ex.meter.Nodes || fs.fastNodes != st.exit || fr.Nodes != er.Nodes+st.exit || fs.Len() != ex.Len() {
						t.Fatalf("%s: fast session %d search + %d fast-path nodes over %d actions, exact session %d over %d",
							when, fs.meter.Nodes, fs.fastNodes, fs.Len(), er.Nodes, ex.Len())
					}
				}
				for i, a := range st.tr {
					if fs.fast == nil != (i > st.exit) {
						t.Fatalf("action %d: on the fast path %v, want the exit at action %d", i, fs.fast != nil, st.exit)
					}
					if i == st.exit {
						if cut, wantCut := fs.cutFed > 0, !witness && st.quiescent; cut != wantCut {
							t.Fatalf("cut after %d actions before the exit, want a cut %v", fs.cutFed, wantCut)
						}
						states := fs.cutSt
						if fs.cutFed == 0 {
							states = []adt.State{st.f.Empty()}
						}
						ex = newSessionAt(ctx, st.f, check.NewSettings(opts...), fs.cutFed, states)
						if err := ex.FeedAll(st.tr[fs.cutFed:i]); err != nil {
							t.Fatalf("exact session: %v", err)
						}
					}
					if err := fs.Feed(a); err != nil {
						t.Fatalf("fast session feed %d: %v", i, err)
					}
					if ex != nil {
						if err := ex.Feed(a); err != nil {
							t.Fatalf("exact session feed %d: %v", i, err)
						}
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
// response — ops, the waiting queues and the record free list hold the
// open operations only, and with witnesses off the chain and its marks
// hold nothing — and a helper is still found after tens of thousands of
// forgotten operations.
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
	// held counts the records the core holds: those waiting for a helper
	// choice, per kind, and those parked for reuse.
	held := func(m *fastMutex) (waiting [2]int, free int) {
		for k, q := range m.waiting {
			for o := q.head; o != nil; o = o.next {
				waiting[k]++
			}
		}
		for o := m.free; o != nil; o = o.next {
			free++
		}
		return waiting, free
	}
	const pairs = 20_000
	for i := 0; i < pairs; i++ {
		id := strconv.Itoa(i)
		feed(trace.Invoke("c1", 1, lk(id)))
		feed(trace.Response("c1", 1, lk(id), ok))
		feed(trace.Invoke("c1", 1, ul(id)))
		m := s.fast.(*fastMutex)
		if n := len(m.ops); n != 1 {
			t.Fatalf("pair %d: %d operations in ops with one open", i, n)
		}
		if waiting, free := held(m); waiting != [2]int{kindUnlock: 1} || free != 0 {
			t.Fatalf("pair %d: %v records waiting and %d free with one release open and one record ever needed", i, waiting, free)
		}
		feed(trace.Response("c1", 1, ul(id), ok))
	}
	// A release that finds the lock free takes the pending acquire as its
	// helper: every operation before it has responded and left the core.
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
	if waiting, free := held(m); waiting != [2]int{} || free != 3 {
		t.Fatalf("%v records waiting and %d free, want none waiting and the three ever open at once", waiting, free)
	}
	if len(m.chain) != 0 || len(m.marks) != 0 || m.n != s.Len()/2 {
		t.Fatalf("witnesses off: chain of %d inputs and %d marks kept, length %d counted for %d operations",
			len(m.chain), len(m.marks), m.n, s.Len()/2)
	}
	if v := s.Verdict(); v != check.Linearizable {
		t.Fatalf("verdict %v, want Linearizable", v)
	}
	if got := s.Nodes(); got != s.Len() {
		t.Fatalf("%d nodes for %d actions: the session left the fast path", got, s.Len())
	}
}

// TestFastCoresKeepNoWitnessMaterial: after 50 000 sequential operations
// with witnesses off, no core holds a member list, a chain or a mark —
// and with them on, each holds all of them.
func TestFastCoresKeepNoWitnessMaterial(t *testing.T) {
	const ops = 50_000
	okOut := adt.WriteOutput()
	streams := []struct {
		f  adt.Folder
		op func(i int) (in, out trace.Value)
		// material counts what the core keeps for the witness.
		material func(FastChecker) int
	}{
		{adt.Register{}, func(i int) (trace.Value, trace.Value) {
			switch {
			case i < 3: // before any write: ⊥-reads
				return adt.Tag(adt.ReadInput(), strconv.Itoa(i)), adt.ReadOutput(adt.Bottom)
			case i%3 == 0:
				return adt.WriteInput(trace.Value("v" + strconv.Itoa(i))), okOut
			}
			return adt.Tag(adt.ReadInput(), strconv.Itoa(i)), adt.ReadOutput(trace.Value("v" + strconv.Itoa(i-i%3)))
		}, func(c FastChecker) int {
			r := c.(*fastRegister)
			n := len(r.botReads)
			for _, b := range r.blocks {
				if b.wit != nil {
					n += 1 + len(b.wit.reads)
				}
			}
			return n
		}},
		{adt.Mutex{}, func(i int) (trace.Value, trace.Value) {
			if i%2 == 0 {
				return adt.Tag(adt.LockInput(), strconv.Itoa(i)), okOut
			}
			return adt.Tag(adt.UnlockInput(), strconv.Itoa(i)), okOut
		}, func(c FastChecker) int {
			m := c.(*fastMutex)
			return len(m.chain) + len(m.marks)
		}},
		{adt.Stack{}, func(i int) (trace.Value, trace.Value) {
			if i%2 == 0 {
				return adt.PushInput(trace.Value("v" + strconv.Itoa(i))), okOut
			}
			return adt.Tag(adt.PopInput(), strconv.Itoa(i)), adt.ReadOutput(trace.Value("v" + strconv.Itoa(i-1)))
		}, func(c FastChecker) int {
			s := c.(*fastStack)
			return len(s.chain) + len(s.marks)
		}},
		{adt.Consensus{}, func(i int) (trace.Value, trace.Value) {
			return adt.Tag(adt.ProposeInput("a"), strconv.Itoa(i)), adt.DecideOutput("a")
		}, func(c FastChecker) int {
			return len(c.(*fastConsensus).resps)
		}},
	}
	for _, st := range streams {
		for _, witness := range []bool{false, true} {
			s := NewSessionFast(context.Background(), st.f, check.WithWitness(witness))
			for i := 0; i < ops; i++ {
				in, out := st.op(i)
				if err := s.FeedAll(trace.Trace{trace.Invoke("c1", 1, in), trace.Response("c1", 1, in, out)}); err != nil {
					t.Fatal(err)
				}
			}
			if s.fast == nil || s.Verdict() != check.Linearizable {
				t.Fatalf("%T: verdict %v, on the fast path %v", st.f, s.Verdict(), s.fast != nil)
			}
			switch n := st.material(s.fast); {
			case !witness && n != 0:
				t.Errorf("%T, witnesses off: %d pieces of witness material kept after %d operations", st.f, n, ops)
			case witness && n < ops:
				t.Errorf("%T, witnesses on: %d pieces of witness material for %d operations", st.f, n, ops)
			}
			if !witness && s.fast.Witness() != nil {
				t.Errorf("%T, witnesses off: a witness was assembled", st.f)
			}
		}
	}
}

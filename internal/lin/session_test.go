package lin

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
	"repro/internal/workload"
)

// sessionTestTraces generates a randomized mix of clean and corrupted
// traces across ADTs, mirroring the E8 workload.
func sessionTestTraces(seed int64, n int) []struct {
	f  adt.Folder
	tr trace.Trace
} {
	r := rand.New(rand.NewSource(seed))
	cases := []struct {
		f      adt.Folder
		inputs []trace.Value
	}{
		{adt.Consensus{}, []trace.Value{adt.ProposeInput("a"), adt.ProposeInput("b")}},
		{adt.Register{}, []trace.Value{adt.WriteInput("x"), adt.ReadInput()}},
		{adt.Counter{}, []trace.Value{adt.IncInput(), adt.GetInput()}},
		{adt.Queue{}, []trace.Value{adt.EnqInput("x"), adt.DeqInput()}},
	}
	out := make([]struct {
		f  adt.Folder
		tr trace.Trace
	}, n)
	for i := range out {
		tc := cases[i%len(cases)]
		opts := workload.TraceOpts{
			Clients: 2 + r.Intn(2), Ops: 3 + r.Intn(4), Inputs: tc.inputs,
			PendingProb: 0.2, UniqueTags: i%3 != 0,
		}
		if i%2 == 1 {
			opts.CorruptProb = 0.5
		}
		out[i].f = tc.f
		out[i].tr = workload.Random(tc.f, r, opts)
	}
	return out
}

// TestSessionAgreesWithCheck is the incremental engine's property test:
// feeding a randomized trace action by action must reproduce the one-shot
// Check verdict on EVERY prefix, and a NotLinearizable session verdict
// must be final.
func TestSessionAgreesWithCheck(t *testing.T) {
	ctx := context.Background()
	for i, tc := range sessionTestTraces(71, 200) {
		s := NewSession(ctx, tc.f, check.WithExact(true))
		sawNotLin := false
		for k, a := range tc.tr {
			if err := s.Feed(a); err != nil {
				t.Fatalf("case %d feed %d: %v", i, k, err)
			}
			prefix := tc.tr[:k+1]
			want, err := Check(ctx, tc.f, prefix, check.WithExact(true))
			if err != nil {
				t.Fatalf("case %d prefix %d: %v", i, k+1, err)
			}
			got, err := s.Result()
			if err != nil {
				t.Fatalf("case %d prefix %d session: %v", i, k+1, err)
			}
			if got.OK != want.OK {
				t.Fatalf("case %d prefix %d: session %v, one-shot %v\nprefix: %v",
					i, k+1, got.OK, want.OK, prefix)
			}
			if sawNotLin && got.OK {
				t.Fatalf("case %d prefix %d: NotLinearizable verdict was not final\nprefix: %v", i, k+1, prefix)
			}
			sawNotLin = sawNotLin || !got.OK
			if got.OK && len(got.Witness) > 0 {
				if err := VerifyWitness(tc.f, prefix, got.Witness); err != nil {
					t.Fatalf("case %d prefix %d: session witness invalid: %v", i, k+1, err)
				}
			}
		}
	}
}

// TestSessionBudgetExhaustion drives a session into budget exhaustion and
// asserts the error is terminal with verdict Unknown: eight open
// proposals of one value make the first response's expansion overrun one
// node per fed action.
func TestSessionBudgetExhaustion(t *testing.T) {
	in := adt.ProposeInput("a")
	s := NewSession(context.Background(), adt.Consensus{}, check.WithBudget(1), check.WithExact(true))
	var err error
	for c := 0; c < 8 && err == nil; c++ {
		err = s.Feed(trace.Invoke(trace.ClientID(rune('a'+c)), 1, in))
	}
	if err == nil {
		err = s.Feed(trace.Response("a", 1, in, adt.DecideOutput("a")))
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
	if v := s.Verdict(); v != check.Unknown {
		t.Fatalf("verdict after budget exhaustion = %v, want Unknown", v)
	}
	if _, rerr := s.Result(); !errors.Is(rerr, ErrBudget) {
		t.Fatalf("Result after exhaustion = %v, want ErrBudget", rerr)
	}
	// The error is sticky.
	if ferr := s.Feed(trace.Invoke("z", 1, in)); !errors.Is(ferr, ErrBudget) {
		t.Fatalf("Feed after exhaustion = %v, want ErrBudget", ferr)
	}
}

// TestSessionBudgetPerFeed pins the budget's unit (DESIGN.md, decision
// 34): the budget bounds what one Feed spends, so a long stream of cheap
// increments decides however many budgets' worth it spends in all —
// that is what lets one session check an unbounded stream online —
// while a single Feed that overruns the allowance is the terminal
// ErrBudget. (Before decision 34 one budget spanned the whole session
// by default, and this stream exhausted it.)
func TestSessionBudgetPerFeed(t *testing.T) {
	in := adt.ProposeInput("a")
	feed := func(s *Session, pairs int) error {
		for c := 0; c < pairs; c++ {
			cid := trace.ClientID(rune('a' + c%26))
			if err := s.Feed(trace.Invoke(cid, 1, in)); err != nil {
				return err
			}
			if err := s.Feed(trace.Response(cid, 1, in, adt.DecideOutput("a"))); err != nil {
				return err
			}
		}
		return nil
	}
	const budget = 20
	per := NewSession(context.Background(), adt.Consensus{}, check.WithBudget(budget), check.WithExact(true))
	if err := feed(per, 64); err != nil {
		t.Fatalf("budget %d exhausted on cheap increments: %v", budget, err)
	}
	if per.Nodes() <= 4*budget {
		t.Fatalf("the stream spent %d nodes in all, want several budgets of %d", per.Nodes(), budget)
	}
	if r, err := per.Result(); err != nil || !r.OK {
		t.Fatalf("session result = %+v, %v", r, err)
	}
	// One expensive Feed still exhausts: seven concurrent proposals make
	// the deciding response's expansion overrun the per-feed allowance,
	// and the error stays sticky.
	wide := NewSession(context.Background(), adt.Consensus{}, check.WithBudget(4), check.WithExact(true))
	var err error
	for c := 0; c < 7 && err == nil; c++ {
		err = wide.Feed(trace.Invoke(trace.ClientID(rune('a'+c)), 1, adt.ProposeInput(string(rune('a'+c)))))
	}
	if err == nil {
		err = wide.Feed(trace.Response("a", 1, adt.ProposeInput("a"), adt.DecideOutput("a")))
	}
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("expensive feed = %v, want ErrBudget", err)
	}
	if ferr := wide.Feed(trace.Invoke("z", 1, in)); !errors.Is(ferr, ErrBudget) {
		t.Fatalf("budget error not sticky: %v", ferr)
	}
}

// TestSessionCancellation cancels the session's context mid-stream and
// asserts the session reports the context error and verdict Unknown.
func TestSessionCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := NewSession(ctx, adt.Consensus{}, check.WithExact(true))
	in := adt.ProposeInput("a")
	if err := s.Feed(trace.Invoke("c1", 1, in)); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := s.Feed(trace.Response("c1", 1, in, adt.DecideOutput("a"))); !errors.Is(err, context.Canceled) {
		t.Fatalf("Feed after cancel = %v, want context.Canceled", err)
	}
	if v := s.Verdict(); v != check.Unknown {
		t.Fatalf("verdict after cancel = %v, want Unknown", v)
	}
}

// TestCheckCancellation cancels a one-shot check up front.
func TestCheckCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range sessionTestTraces(3, 8) {
		if _, err := Check(ctx, tc.f, tc.tr, check.WithExact(true)); !errors.Is(err, context.Canceled) {
			t.Fatalf("check on a cancelled context: %v, want context.Canceled", err)
		}
	}
}

// TestSessionIllFormed asserts ill-formed feeds yield the one-shot
// verdict (NotLinearizable, not an error) and stay final.
func TestSessionIllFormed(t *testing.T) {
	s := NewSession(context.Background(), adt.Consensus{}, check.WithExact(true))
	in := adt.ProposeInput("a")
	if err := s.Feed(trace.Response("c1", 1, in, adt.DecideOutput("a"))); err != nil {
		t.Fatalf("ill-formed feed must not error: %v", err)
	}
	r, err := s.Result()
	if err != nil || r.OK || r.Reason != "trace is not well-formed" {
		t.Fatalf("got %+v, %v", r, err)
	}
	// Feeding well-formed actions afterwards cannot revive the verdict.
	if err := s.Feed(trace.Invoke("c2", 1, in)); err != nil {
		t.Fatal(err)
	}
	if v := s.Verdict(); v != check.NotLinearizable {
		t.Fatalf("verdict = %v, want NotLinearizable", v)
	}
}

// TestSessionStreamingAllocsFlat is the leak test for the compacted
// streaming engine (DESIGN.md, decision 17): one long-lived exact
// session fed three consecutive 100k-op capture-shaped segments —
// sequential runs with a periodic two-client overlap burst — must
// allocate at a flat per-op rate. A frontier, pool, or digest cache
// that grows with history length shows up as a rising per-segment rate
// long before it shows up as memory.
func TestSessionStreamingAllocsFlat(t *testing.T) {
	s := NewSession(context.Background(), adt.Register{}, check.WithWitness(false), check.WithExact(true))
	wA, wB := adt.WriteInput("a"), adt.WriteInput("b")
	rd := adt.ReadInput()
	last := trace.Value("a")
	do := func(c trace.ClientID, in, out trace.Value) error {
		if err := s.Feed(trace.Invoke(c, 1, in)); err != nil {
			return err
		}
		return s.Feed(trace.Response(c, 1, in, out))
	}
	step := 0
	feed := func(n int) error {
		for i := 0; i < n; i++ {
			m := step % 16
			step++
			switch {
			case m == 14:
				// Overlap burst: q's write overlaps p's read; the read
				// observes it (linearizable: write before read).
				if err := s.Feed(trace.Invoke("p", 1, rd)); err != nil {
					return err
				}
				if err := do("q", wB, adt.WriteOutput()); err != nil {
					return err
				}
				if err := s.Feed(trace.Response("p", 1, rd, adt.ReadOutput("b"))); err != nil {
					return err
				}
				last = "b"
			case m%2 == 0:
				if err := do("p", wA, adt.WriteOutput()); err != nil {
					return err
				}
				last = "a"
			default:
				if err := do("p", rd, adt.ReadOutput(last)); err != nil {
					return err
				}
			}
		}
		return nil
	}
	segment := func(n int) float64 {
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if err := feed(n); err != nil {
			t.Fatalf("op %d: %v", step, err)
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / float64(n)
	}
	const opsPerSeg = 100_000
	var rates [3]float64
	for i := range rates {
		rates[i] = segment(opsPerSeg)
	}
	if r, err := s.Result(); err != nil || !r.OK {
		t.Fatalf("stream result = %+v, %v", r, err)
	}
	// Flatness, not absolute count: later segments must not allocate
	// meaningfully more per op than the first (the +1 absorbs GC and
	// map-rehash noise at near-zero rates).
	for i := 1; i < len(rates); i++ {
		if rates[i] > 2*rates[0]+1 {
			t.Fatalf("allocs/op grew across segments: %.3f, %.3f, %.3f",
				rates[0], rates[1], rates[2])
		}
	}
}

// A witness-on session keeps one chain node and one trail node per
// response, so their sizes are its memory per operation (E18's
// compare-witness-on row, 48 B on 64-bit): an inline abort's history sits
// in the frontier, named by index, not in every trail node.
func TestWitnessNodeSizes(t *testing.T) {
	if got := unsafe.Sizeof(asnNode{}); got != 24 {
		t.Fatalf("asnNode is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(chainNode{}); got != 24 {
		t.Fatalf("chainNode is %d bytes, want 24", got)
	}
}

// FuzzSessionAgreesWithCheck drives random action sequences (including
// ill-formed ones) through a session and the one-shot checker.
func FuzzSessionAgreesWithCheck(f *testing.F) {
	f.Add(int64(1), uint8(6))
	f.Add(int64(42), uint8(12))
	f.Fuzz(func(t *testing.T, seed int64, n uint8) {
		r := rand.New(rand.NewSource(seed))
		inputs := []trace.Value{adt.ProposeInput("a"), adt.ProposeInput("b")}
		outputs := []trace.Value{adt.DecideOutput("a"), adt.DecideOutput("b")}
		clients := []trace.ClientID{"c1", "c2", "c3"}
		var tr trace.Trace
		for i := 0; i < int(n%24); i++ {
			c := clients[r.Intn(len(clients))]
			if r.Intn(2) == 0 {
				tr = append(tr, trace.Invoke(c, 1, inputs[r.Intn(2)]))
			} else {
				tr = append(tr, trace.Response(c, 1, inputs[r.Intn(2)], outputs[r.Intn(2)]))
			}
		}
		ctx := context.Background()
		want, err := Check(ctx, adt.Consensus{}, tr, check.WithExact(true))
		if err != nil {
			t.Skip() // budget-type errors: nothing to compare
		}
		s := NewSession(ctx, adt.Consensus{}, check.WithExact(true))
		if err := s.FeedAll(tr); err != nil {
			t.Fatalf("session error where one-shot succeeded: %v", err)
		}
		got, err := s.Result()
		if err != nil {
			t.Fatal(err)
		}
		if got.OK != want.OK {
			t.Fatalf("session %v, one-shot %v on %v", got.OK, want.OK, tr)
		}
	})
}

// TestSessionPendingMapBounded pins the well-formedness bookkeeping to
// the clients that currently have an operation open: smr's component
// histories give every operation its own process and feed it as an
// instantaneous pair, so a response that left its key behind would grow
// the map by one entry per operation fed for the session's lifetime.
func TestSessionPendingMapBounded(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		s    *Session
	}{
		{"exact", NewSession(ctx, adt.Register{}, check.WithWitness(false), check.WithExact(true))},
		{"fast", NewSession(ctx, adt.Register{}, check.WithWitness(false))},
	} {
		for i := 0; i < 10_000; i++ {
			c := trace.ClientID("k#" + strconv.Itoa(i))
			in := adt.WriteInput("v" + strconv.Itoa(i))
			if err := tc.s.FeedAll(trace.Trace{trace.Invoke(c, 1, in), trace.Response(c, 1, in, adt.WriteOutput())}); err != nil {
				t.Fatalf("%s op %d: %v", tc.name, i, err)
			}
		}
		if tc.name == "fast" && tc.s.fast == nil {
			t.Fatal("fast session fell back to the exact engine")
		}
		if v := tc.s.Verdict(); v != check.Linearizable {
			t.Fatalf("%s: verdict %v", tc.name, v)
		}
		if n := len(tc.s.pending); n != 0 {
			t.Fatalf("%s: pending map holds %d entries after 10000 completed operations", tc.name, n)
		}
		if n := len(tc.s.Pool.AppendDiff(nil, nil)); n != 0 {
			t.Fatalf("%s: %d inputs still counted as pending", tc.name, n)
		}
	}
}

package lin

import (
	"context"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
)

// The digest table's two soundness lines (DESIGN.md, decision 24), held
// on the table itself and on the cores built over it: as a set, equal
// strings always hit and a hit is only ever a FastExit; as an index, a
// lookup is exact however the digests collide.

// TestDigestIsAFixedFunction pins the digest of three strings: it has
// no per-process seed, so whether a trace stays on the fast path — and
// that the clean hunts report nodes == actions — repeats run to run.
func TestDigestIsAFixedFunction(t *testing.T) {
	var d digestTable
	for s, want := range map[string]uint64{
		"":               0x49127491317ecde6,
		"w:v1":           0x7e75a634c525759f,
		"lock:⋕c1-12345": 0x38460aad65c5ddfb,
	} {
		if got := d.digest(s); got != want {
			t.Errorf("digest(%q) = %#x, want %#x", s, got, want)
		}
	}
}

func TestDigestTableSet(t *testing.T) {
	const n = 100_000
	name := func(i int) string { return "r:⋕k" + strconv.Itoa(i%16) + ".c" + strconv.Itoa(i) }
	var set digestTable
	for i := 0; i < n; i++ {
		// A false alarm is allowed by the contract; on this corpus the
		// fixed digest has none, which is what keeps hunts of this size on
		// the fast path.
		if set.add(name(i)) {
			t.Fatalf("input %d of %d distinct ones reported as seen", i, n)
		}
	}
	for _, i := range []int{0, 1, n / 2, n - 1} {
		if !set.add(name(i)) {
			t.Fatalf("input %d added twice and not reported", i)
		}
	}
	if set.n != n || 2*set.n > len(set.slots) {
		t.Fatalf("%d entries in %d slots, want %d entries at most half full", set.n, len(set.slots), n)
	}

	all := digestTable{collide: true}
	if all.add("a") || !all.add("a") || !all.add("b") {
		t.Fatal("a colliding set must miss its first string and hit every later one")
	}
}

func TestDigestTableIndex(t *testing.T) {
	for _, collide := range []bool{false, true} {
		const n = 2_000
		var vals []string
		idx := digestTable{collide: collide}
		lookup := func(s string) (int, bool) {
			return idx.get(s, func(i int) bool { return vals[i] == s })
		}
		for i := 0; i < n; i++ {
			s := "v" + strconv.Itoa(i)
			if _, ok := lookup(s); ok {
				t.Fatalf("collide %v: %q found before it was put", collide, s)
			}
			idx.put(s, len(vals))
			vals = append(vals, s)
		}
		for i, s := range vals {
			if got, ok := lookup(s); !ok || got != i {
				t.Fatalf("collide %v: %q found at %d (%v), want %d", collide, s, got, ok, i)
			}
		}
		if _, ok := lookup("v" + strconv.Itoa(n)); ok {
			t.Fatalf("collide %v: a string never put was found", collide)
		}
	}
}

// TestDigestTableReset: a reset table holds nothing, clears a table at
// least an eighth full in place and replaces a sparser one with one sized
// for what it held, so a reset costs its entries, not its longest past.
func TestDigestTableReset(t *testing.T) {
	var set digestTable
	fill := func(n int) {
		for i := 0; i < n; i++ {
			if set.add("v" + strconv.Itoa(i)) {
				t.Fatalf("input %d of %d reported as seen after a reset", i, n)
			}
		}
	}
	fill(10_000)
	big := len(set.slots)
	set.reset()
	if set.n != 0 || len(set.slots) != big {
		t.Fatalf("a full table reset to %d entries in %d slots, want 0 in %d", set.n, len(set.slots), big)
	}
	fill(100)
	set.reset()
	if set.n != 0 || len(set.slots) != 256 {
		t.Fatalf("a sparse table reset to %d entries in %d slots, want 0 in 256", set.n, len(set.slots))
	}
	fill(100)
}

// TestFastExitOnLateDuplicate: with cuts off, a real duplicate arriving
// after 100 000 distinct inputs still leaves the fragment, and the
// fallback's verdict is the exact engine's (a repeated read is
// linearizable). With cuts on, the stream is quiescent throughout, so the
// same repeat comes long after the cut that made the core forget it
// (DESIGN.md, decision 35): it stays on the fast path, with the exact
// verdict.
func TestFastExitOnLateDuplicate(t *testing.T) {
	const distinct = 100_000
	for _, cuts := range []bool{false, true} {
		s := NewSession(context.Background(), adt.Register{}, check.WithWitness(false))
		ex := NewSession(context.Background(), adt.Register{}, check.WithExact(true))
		if !cuts {
			noCuts(s)
		}
		read := func(tag string) {
			t.Helper()
			in := adt.Tag(adt.ReadInput(), tag)
			tr := trace.Trace{trace.Invoke("c1", 1, in), trace.Response("c1", 1, in, adt.ReadOutput(adt.Bottom))}
			if err := s.FeedAll(tr); err != nil {
				t.Fatal(err)
			}
			if cuts {
				if err := ex.FeedAll(tr); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < distinct; i++ {
			read(strconv.Itoa(i))
		}
		if s.fast == nil || s.Nodes() != s.Len() {
			t.Fatalf("cuts %v, %d distinct inputs: %d nodes for %d actions, the session left the fast path", cuts, distinct, s.Nodes(), s.Len())
		}
		if seen := s.seen.n; cuts == (seen == distinct) {
			t.Fatalf("cuts %v: %d inputs in the table after %d distinct ones", cuts, seen, distinct)
		}
		read("7")
		switch {
		case !cuts && s.fast != nil:
			t.Fatal("a repeated input stayed on the fast path")
		case cuts && (s.fast == nil || s.cutFed == 0):
			t.Fatalf("a repeat after a cut (the last after %d actions) left the fast path", s.cutFed)
		case cuts && s.Verdict() != ex.Verdict():
			t.Fatalf("verdict %v after a repeat across a cut, the exact engine's %v", s.Verdict(), ex.Verdict())
		}
		if v := s.Verdict(); v != check.Linearizable {
			t.Fatalf("cuts %v: verdict %v after the repeat, want Linearizable", cuts, v)
		}
	}
}

// TestCollidingCoresAlwaysExit: under CollidingDigests the second input
// of any trace hits the first one's digest in the session's table, so
// every core's session exits there — the false alarm is a FastExit,
// never a verdict — and the one-shot check hands the trace to the exact
// engine, reporting its verdict and nodes.
func TestCollidingCoresAlwaysExit(t *testing.T) {
	ok := adt.WriteOutput()
	for _, tc := range []struct {
		f   adt.Folder
		in  [2]trace.Value
		out trace.Value
	}{
		{adt.Register{}, [2]trace.Value{adt.WriteInput("a"), adt.WriteInput("b")}, ok},
		{adt.Mutex{}, [2]trace.Value{adt.Tag(adt.LockInput(), "1"), adt.Tag(adt.UnlockInput(), "1")}, ok},
		{adt.Stack{}, [2]trace.Value{adt.PushInput("a"), adt.PushInput("b")}, ok},
		{adt.Consensus{}, [2]trace.Value{adt.Tag(adt.ProposeInput("a"), "1"), adt.Tag(adt.ProposeInput("a"), "2")}, adt.DecideOutput("a")},
		{adt.Queue{}, [2]trace.Value{adt.EnqInput("a"), adt.EnqInput("b")}, ok},
	} {
		f := CollidingDigests{Folder: tc.f}
		if NewFastChecker(f, true) == nil {
			t.Fatalf("%T: no fast path under CollidingDigests", tc.f)
		}
		one := trace.Trace{trace.Invoke("c1", 1, tc.in[0]), trace.Response("c1", 1, tc.in[0], tc.out)}
		two := append(one[:2:2], trace.Invoke("c1", 1, tc.in[1]), trace.Response("c1", 1, tc.in[1], tc.out))
		s := NewSession(context.Background(), f)
		if err := s.FeedAll(one); err != nil || s.fast == nil {
			t.Fatalf("%T: one operation not decided on the fast path (err %v)", tc.f, err)
		}
		if err := s.Feed(two[2]); err != nil || s.fast != nil {
			t.Fatalf("%T: a second, colliding invocation stayed on the fast path (err %v)", tc.f, err)
		}
		got, err := Check(context.Background(), f, two)
		want, werr := Check(context.Background(), f, two, check.WithExact(true))
		if err != nil || werr != nil || got.OK != want.OK || got.Reason != want.Reason || got.Nodes != want.Nodes {
			t.Fatalf("%T: one-shot %+v (err %v), the exact engine's %+v (err %v)", tc.f, got, err, want, werr)
		}
	}
}

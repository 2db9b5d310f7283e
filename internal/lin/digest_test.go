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

// TestFastExitOnLateDuplicate: a real duplicate arriving after 100 000
// distinct inputs still leaves the fragment, and the fallback's verdict
// is the exact engine's (a repeated read is linearizable).
func TestFastExitOnLateDuplicate(t *testing.T) {
	const distinct = 100_000
	s := NewSessionFast(context.Background(), adt.Register{}, check.WithWitness(false))
	read := func(tag string) {
		t.Helper()
		in := adt.Tag(adt.ReadInput(), tag)
		if err := s.FeedAll(trace.Trace{
			trace.Invoke("c1", 1, in),
			trace.Response("c1", 1, in, adt.ReadOutput(adt.Bottom)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < distinct; i++ {
		read(strconv.Itoa(i))
	}
	if s.fast == nil || s.Nodes() != s.Len() {
		t.Fatalf("%d distinct inputs: %d nodes for %d actions, the session left the fast path", distinct, s.Nodes(), s.Len())
	}
	read("7")
	if s.fast != nil {
		t.Fatal("a repeated input stayed on the fast path")
	}
	if v := s.Verdict(); v != check.Linearizable {
		t.Fatalf("verdict %v after the fallback, want Linearizable", v)
	}
}

// TestCollidingCoresAlwaysExit: under CollidingDigests the second input
// of any trace hits the first one's digest, so every core exits there —
// the false alarm is a FastExit, never a verdict — and the one-shot
// check hands the trace to the exact engines.
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
		if !HasFastpath(f) {
			t.Fatalf("%T: no fast path under CollidingDigests", tc.f)
		}
		one := trace.Trace{trace.Invoke("c1", 1, tc.in[0]), trace.Response("c1", 1, tc.in[0], tc.out)}
		two := append(one[:2:2], trace.Invoke("c1", 1, tc.in[1]), trace.Response("c1", 1, tc.in[1], tc.out))
		set := check.NewSettings()
		if _, decided, err := fastCheckSettings(context.Background(), f, one, set); err != nil || !decided {
			t.Fatalf("%T: one operation not decided on the fast path (err %v)", tc.f, err)
		}
		if _, decided, err := fastCheckSettings(context.Background(), f, two, set); err != nil || decided {
			t.Fatalf("%T: two colliding inputs decided on the fast path (err %v)", tc.f, err)
		}
		core := NewFastChecker(f, true)
		if st := core.Inv(tc.in[0], 0); st != FastOK {
			t.Fatalf("%T: first invocation: status %v", tc.f, st)
		}
		if st := core.Inv(tc.in[1], 1); st != FastExit {
			t.Fatalf("%T: second, colliding invocation: status %v, want FastExit", tc.f, st)
		}
	}
}

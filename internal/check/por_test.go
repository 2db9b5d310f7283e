package check

import (
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/trace"
)

// TestSleepSetOps pins the bitset semantics, including the ≥64-symbol
// spill representation (decision 13: high symbols sleep too; the former
// uint64 representation silently never slept them).
func TestSleepSetOps(t *testing.T) {
	var s SleepSet
	if !s.Empty() || s.Has(0) || s.Has(63) || s.Has(64) || s.Has(1000) {
		t.Fatal("zero value must be the empty set")
	}
	s = s.Add(0).Add(5).Add(63).Add(64).Add(200)
	for _, sym := range []trace.Sym{0, 5, 63, 64, 200} {
		if !s.Has(sym) {
			t.Fatalf("symbol %d not asleep after Add", sym)
		}
	}
	for _, sym := range []trace.Sym{1, 62, 65, 199, 201, 1 << 20} {
		if s.Has(sym) {
			t.Fatalf("unrelated symbol %d asleep", sym)
		}
	}
	if s.Empty() {
		t.Fatal("populated set reports Empty")
	}
	// Value semantics survive the spill: adding a high symbol to a copy
	// must not leak into the original (copy-on-write list).
	base := s
	grown := base.Add(300)
	if base.Has(300) {
		t.Fatal("Add mutated a shared spill list")
	}
	if !grown.Has(300) || !grown.Has(200) || !grown.Has(5) {
		t.Fatal("grown copy lost members")
	}
	// Intersect keeps exactly the common members, low and high, and is
	// canonical: no common high symbol leaves no spill list behind.
	other := SleepSet{}.Add(5).Add(64).Add(300).Add(7).Add(250)
	both := grown.Intersect(other)
	for _, sym := range []trace.Sym{0, 5, 7, 63, 64, 200, 250, 300} {
		if want := grown.Has(sym) && other.Has(sym); both.Has(sym) != want {
			t.Fatalf("Intersect: symbol %d asleep = %v, want %v", sym, both.Has(sym), want)
		}
	}
	if low := grown.Intersect(SleepSet{}.Add(5).Add(250)); low.hi != nil || !low.Has(5) {
		t.Fatalf("Intersect without common high symbols = %+v", low)
	}
	// forEach enumerates exactly the members, in increasing order.
	var got []trace.Sym
	grown.forEach(func(sym trace.Sym) { got = append(got, sym) })
	want := []trace.Sym{0, 5, 63, 64, 200, 300}
	if len(got) != len(want) {
		t.Fatalf("forEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("forEach visited %v, want %v", got, want)
		}
	}
}

// TestFilterIndependentMatchesIndependent is the anti-divergence pin:
// FilterIndependent inlines Independent with branch-constant folder
// calls hoisted, and this property test asserts the two stay the same
// relation — for every sleeping symbol s,
// FilterIndependent(...).Has(s) == Independent(f, st, value(s), in) —
// across random states and inputs of the four ADTs.
//
// The offset variant pads the interner with dummy symbols first, placing
// every real input in the ≥64 spill range, so the property also pins the
// decision-13 spill path.
func TestFilterIndependentMatchesIndependent(t *testing.T) {
	cases := []struct {
		f      adt.Folder
		inputs []trace.Value
	}{
		{adt.Consensus{}, []trace.Value{adt.ProposeInput("a"), adt.ProposeInput("b"), adt.ProposeInput("c")}},
		{adt.Register{}, []trace.Value{adt.WriteInput("x"), adt.WriteInput("y"), adt.ReadInput()}},
		{adt.Counter{}, []trace.Value{adt.IncInput(), adt.GetInput()}},
		{adt.Queue{}, []trace.Value{adt.EnqInput("x"), adt.EnqInput("y"), adt.DeqInput()}},
	}
	r := rand.New(rand.NewSource(64))
	for _, offset := range []int{0, 70} {
		for _, tc := range cases {
			in := trace.NewInterner()
			for pad := 0; pad < offset; pad++ {
				in.Sym(adt.Tag(tc.inputs[0], "pad"+string(rune('A'+pad))))
			}
			lowSyms := in.Len()
			for _, v := range tc.inputs {
				in.Sym(v)
			}
			for iter := 0; iter < 200; iter++ {
				// A random reachable state: fold a short random history.
				st := tc.f.Empty()
				for k, n := 0, r.Intn(4); k < n; k++ {
					st = tc.f.Step(st, tc.inputs[r.Intn(len(tc.inputs))])
				}
				branch := tc.inputs[r.Intn(len(tc.inputs))]
				var sleep SleepSet
				for sym := trace.Sym(lowSyms); int(sym) < in.Len(); sym++ {
					if r.Intn(2) == 0 && in.Value(sym) != branch {
						sleep = sleep.Add(sym)
					}
				}
				stIn, outIn := tc.f.Step(st, branch), tc.f.Out(st, branch)
				got := sleep.FilterIndependent(tc.f, in, st, branch, stIn, outIn)
				for sym := trace.Sym(lowSyms); int(sym) < in.Len(); sym++ {
					want := sleep.Has(sym) && Independent(tc.f, st, in.Value(sym), branch)
					if got.Has(sym) != want {
						t.Fatalf("%s (offset %d): FilterIndependent diverges from Independent at state %q, sleep %q vs branch %q: got %v want %v",
							tc.f.Name(), offset, st, in.Value(sym), branch, got.Has(sym), want)
					}
				}
			}
		}
	}
}

// TestIndependentSpotChecks pins the relation on known pairs: commuting
// (reads, post-decision proposals) and conflicting (writes, increments,
// pre-decision proposals).
func TestIndependentSpotChecks(t *testing.T) {
	reg, cons, ctr := adt.Register{}, adt.Consensus{}, adt.Counter{}
	if !Independent(reg, reg.Empty(), adt.ReadInput(), adt.Tag(adt.ReadInput(), "2")) {
		t.Fatal("two reads must commute")
	}
	if Independent(reg, reg.Empty(), adt.WriteInput("x"), adt.WriteInput("y")) {
		t.Fatal("writes of different values must conflict")
	}
	if Independent(reg, reg.Empty(), adt.WriteInput("x"), adt.ReadInput()) {
		t.Fatal("a write and a read of ⊥ must conflict")
	}
	if Independent(cons, cons.Empty(), adt.ProposeInput("a"), adt.ProposeInput("b")) {
		t.Fatal("proposals at the undecided state must conflict")
	}
	decided := cons.Step(cons.Empty(), adt.ProposeInput("a"))
	if !Independent(cons, decided, adt.ProposeInput("b"), adt.ProposeInput("c")) {
		t.Fatal("proposals after a decision must commute")
	}
	if Independent(ctr, ctr.Empty(), adt.IncInput(), adt.Tag(adt.IncInput(), "2")) {
		t.Fatal("two fetch-and-increments must conflict (outputs order-sensitive)")
	}
}

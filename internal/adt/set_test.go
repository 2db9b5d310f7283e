package adt

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/trace"
)

// splitSetStep is the set codec Step and Out replaced: split the state
// into its elements, search and edit the slice, join it again.
func splitSetStep(s State, in trace.Value) (State, trace.Value) {
	op, arg, _ := split2(Untag(in))
	var elems []string
	if s != "" {
		elems = strings.Split(string(s), "\x00")
	}
	i, ok := slices.BinarySearch(elems, arg)
	out := BoolOutput(ok)
	switch {
	case op == "add" && !ok:
		elems = slices.Insert(elems, i, arg)
		out = BoolOutput(true)
	case op == "add":
		out = BoolOutput(false)
	case op == "rm" && ok:
		elems = slices.Delete(elems, i, i+1)
	}
	return State(strings.Join(elems, "\x00")), out
}

// TestSetCodecMatchesSplit: the in-place codec reaches the very states,
// byte for byte, and the outputs of the split-and-join one on random
// walks over elements that prefix one another ("a", "ab", "b").
func TestSetCodecMatchesSplit(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	elems := []trace.Value{"a", "ab", "b", "ba", "c"}
	ops := []func(trace.Value) trace.Value{AddInput, RemoveInput, HasInput}
	for walk := 0; walk < 200; walk++ {
		s := Set{}.Empty()
		for step := 0; step < 30; step++ {
			in := Tag(ops[r.Intn(len(ops))](elems[r.Intn(len(elems))]), "t")
			want, wantOut := splitSetStep(s, in)
			if got := (Set{}).Out(s, in); got != wantOut {
				t.Fatalf("Out(%q, %q) = %q, want %q", s, in, got, wantOut)
			}
			if got := (Set{}).Step(s, in); got != want {
				t.Fatalf("Step(%q, %q) = %q, want %q", s, in, got, want)
			}
			s = want
		}
	}
}

// TestSetCodecAllocs pins what the codec costs: Out reads the state in
// place, and Step builds a changed set in at most one allocation and
// returns an unchanged one as it is.
func TestSetCodecAllocs(t *testing.T) {
	s := Fold(Set{}, trace.History{AddInput("e0"), AddInput("e2"), AddInput("e3")})
	for _, c := range []struct {
		name   string
		in     trace.Value
		allocs float64
		step   bool
	}{
		{"has member", HasInput("e2"), 0, false},
		{"has absent", HasInput("e1"), 0, false},
		{"add absent", AddInput("e1"), 0, false},
		{"add absent", AddInput("e1"), 1, true},
		{"add last", AddInput("e4"), 1, true},
		{"add member", AddInput("e2"), 0, true},
		{"rm member", RemoveInput("e2"), 1, true},
		{"rm last", RemoveInput("e3"), 0, true}, // a prefix of the state
		{"rm absent", RemoveInput("e1"), 0, true},
	} {
		in := Tag(c.in, "7")
		got := testing.AllocsPerRun(100, func() {
			if c.step {
				_ = Set{}.Step(s, in)
			} else {
				_ = Set{}.Out(s, in)
			}
		})
		if got != c.allocs {
			t.Errorf("%s (step %v): %.0f allocations, want %.0f", c.name, c.step, got, c.allocs)
		}
	}
}

package trace

import (
	"fmt"
	"testing"
)

func TestInternerRoundTrip(t *testing.T) {
	in := NewInterner()
	vals := []Value{"a", "b", "a", "c", "b"}
	syms := make([]Sym, len(vals))
	for i, v := range vals {
		syms[i] = in.Sym(v)
	}
	if syms[0] != syms[2] || syms[1] != syms[4] {
		t.Fatal("equal values must intern to equal symbols")
	}
	if syms[0] == syms[1] || syms[0] == syms[3] || syms[1] == syms[3] {
		t.Fatal("distinct values must intern to distinct symbols")
	}
	if in.Len() != 3 {
		t.Fatalf("Len = %d, want 3", in.Len())
	}
	for i, v := range vals {
		if in.Value(syms[i]) != v {
			t.Fatalf("Value(Sym(%q)) = %q", v, in.Value(syms[i]))
		}
	}
}

func TestDigestAddSubInverse(t *testing.T) {
	var d Digest
	comps := []Digest{HashElem(0, 1), HashElem(1, 2), HashBit(3)}
	for _, c := range comps {
		d = d.Add(c)
	}
	// Removing in a different order must restore the zero digest.
	d = d.Sub(comps[1]).Sub(comps[2]).Sub(comps[0])
	if d != (Digest{}) {
		t.Fatalf("Add/Sub not inverse: %v", d)
	}
}

func TestHashElemSensitivity(t *testing.T) {
	base := HashElem(3, 7)
	for _, other := range []Digest{HashElem(4, 7), HashElem(3, 8)} {
		if other == base {
			t.Fatal("HashElem must differ when any component differs")
		}
	}
	// Order sensitivity: [a b] and [b a] sum to different digests.
	ab := HashElem(0, 1).Add(HashElem(1, 2))
	ba := HashElem(0, 2).Add(HashElem(1, 1))
	if ab == ba {
		t.Fatal("positional hashing must distinguish permutations")
	}
}

func TestHashStringDistinctAndStable(t *testing.T) {
	seen := map[Digest]string{}
	add := func(s string) {
		d := HashString(s)
		if d != HashString(s) {
			t.Fatalf("HashString(%q) unstable", s)
		}
		if prev, dup := seen[d]; dup && prev != s {
			t.Fatalf("digest collision: %q vs %q", prev, s)
		}
		seen[d] = s
	}
	// Near-miss families: shared prefixes, transpositions, length-1
	// deltas, embedded NULs — the shapes canonical state keys produce.
	add("")
	add("\x00")
	add("\x00\x00")
	for i := 0; i < 2000; i++ {
		add(fmt.Sprintf("state[%d 0 1]", i))
		add(fmt.Sprintf("state[0 %d 1]", i))
		add(fmt.Sprintf("s%d\x00t%d", i, 2000-i))
	}
	if HashString("ab") == HashString("ba") {
		t.Fatal("transposition collided")
	}
}

package trace

import (
	"math/rand"
	"slices"
	"strconv"
	"testing"
)

// TestSparseMultisetMatchesOracle is the sparse multiset's property
// test: under random add/remove sequences over a symbol space far larger
// than the live contents, its entries equal a value-keyed Multiset's
// counts at every step, and AppendDiff against a sorted occurrence list
// agrees with the oracle's difference.
func TestSparseMultisetMatchesOracle(t *testing.T) {
	key := func(s Sym) Value { return strconv.Itoa(int(s)) }
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		nsyms := 1 + r.Intn(200)
		var sp SparseMultiset
		de, deSub := Multiset{}, Multiset{}
		var held []Sym // occurrences currently in sp, for removals
		var sub []Sym  // occurrences to subtract, a sub-multiset of held
		var diff []SymCount
		// agree checks that got lists exactly want's non-zero counts, in
		// ascending symbol order.
		agree := func(step int, what string, got []SymCount, want Multiset) {
			t.Helper()
			size := 0
			for i, e := range got {
				if e.N <= 0 || int(e.N) != want.Count(key(e.Sym)) || (i > 0 && got[i-1].Sym >= e.Sym) {
					t.Fatalf("seed %d step %d: %s entry %d = %+v (oracle count %d) in %v",
						seed, step, what, i, e, want.Count(key(e.Sym)), got)
				}
				size += int(e.N)
			}
			if size != want.Size() {
				t.Fatalf("seed %d step %d: %s holds %d occurrences, oracle %d", seed, step, what, size, want.Size())
			}
		}
		for step := 0; step < 400; step++ {
			if len(held) > 0 && r.Intn(5) < 2 {
				i := r.Intn(len(held))
				s := held[i]
				held = append(held[:i], held[i+1:]...)
				if deSub.Count(key(s)) == de.Count(key(s)) { // keep sub ⊆ sp
					sub = slices.Delete(sub, slices.Index(sub, s), slices.Index(sub, s)+1)
					deSub.Add(key(s), -1)
				}
				sp.Add(s, -1)
				de.Add(key(s), -1)
			} else {
				s, n := Sym(r.Intn(nsyms)), 1+r.Intn(3)
				sp.Add(s, n)
				de.Add(key(s), n)
				for ; n > 0; n-- {
					held = append(held, s)
				}
				if r.Intn(2) == 0 {
					sub = append(sub, s)
					deSub.Add(key(s), 1)
				}
			}
			agree(step, "contents", sp.AppendDiff(nil, nil), de)

			want := de.Clone()
			for v, n := range deSub {
				want.Add(v, -n)
			}
			slices.Sort(sub)
			diff = sp.AppendDiff(diff[:0], sub)
			agree(step, "AppendDiff", diff, want)
		}
	}
}

func TestSparseMultisetNegativePanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	var m SparseMultiset
	m.Add(2, 1)
	mustPanic("Add below zero", func() { m.Add(2, -2) })
	mustPanic("Add to absent symbol", func() { m.Add(1, -1) })
	mustPanic("AppendDiff count", func() { m.AppendDiff(nil, []Sym{2, 2}) })
	mustPanic("AppendDiff absent symbol", func() { m.AppendDiff(nil, []Sym{3}) })
	mustPanic("AppendDiff absent low symbol", func() { m.AppendDiff(nil, []Sym{1}) })
}

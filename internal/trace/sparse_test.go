package trace

import (
	"math/rand"
	"slices"
	"testing"
)

// TestSparseMultisetMatchesDense is the sparse multiset's property test:
// under random add/remove sequences over a symbol space far larger than
// the live contents, its entries equal the dense SymMultiset's counts at
// every step, and AppendDiff against a sorted occurrence list agrees
// with the dense SubtractAll.
func TestSparseMultisetMatchesDense(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		nsyms := 1 + r.Intn(200)
		var sp SparseMultiset
		var de, deSub SymMultiset
		var held []Sym // occurrences currently in sp, for removals
		var sub []Sym  // occurrences to subtract, a sub-multiset of held
		var diff []SymCount
		// agree checks that got lists exactly want's non-zero counts, in
		// ascending symbol order.
		agree := func(step int, what string, got []SymCount, want *SymMultiset) {
			t.Helper()
			size := 0
			for i, e := range got {
				if e.N <= 0 || int(e.N) != want.Count(e.Sym) || (i > 0 && got[i-1].Sym >= e.Sym) {
					t.Fatalf("seed %d step %d: %s entry %d = %+v (dense count %d) in %v",
						seed, step, what, i, e, want.Count(e.Sym), got)
				}
				size += int(e.N)
			}
			if size != want.Size() {
				t.Fatalf("seed %d step %d: %s holds %d occurrences, dense %d", seed, step, what, size, want.Size())
			}
		}
		for step := 0; step < 400; step++ {
			if len(held) > 0 && r.Intn(5) < 2 {
				i := r.Intn(len(held))
				s := held[i]
				held = append(held[:i], held[i+1:]...)
				if deSub.Count(s) == de.Count(s) { // keep sub ⊆ sp
					sub = slices.Delete(sub, slices.Index(sub, s), slices.Index(sub, s)+1)
					deSub.Add(s, -1)
				}
				sp.Add(s, -1)
				de.Add(s, -1)
			} else {
				s, n := Sym(r.Intn(nsyms)), 1+r.Intn(3)
				sp.Add(s, n)
				de.Add(s, n)
				for ; n > 0; n-- {
					held = append(held, s)
				}
				if r.Intn(2) == 0 {
					sub = append(sub, s)
					deSub.Add(s, 1)
				}
			}
			agree(step, "contents", sp.AppendDiff(nil, nil), &de)

			want := de.Clone()
			want.SubtractAll(&deSub)
			slices.Sort(sub)
			diff = sp.AppendDiff(diff[:0], sub)
			agree(step, "AppendDiff", diff, &want)
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

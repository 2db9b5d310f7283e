package trace

import (
	"math/rand"
	"testing"
)

// TestSparseMultisetMatchesDense is the sparse multiset's property test:
// under random add/remove sequences over a symbol space far larger than
// the live contents, its digest, counts and size equal the dense
// SymMultiset's at every step, Set replicates it into reused storage,
// and AppendDiff agrees with the dense SubtractAll.
func TestSparseMultisetMatchesDense(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		r := rand.New(rand.NewSource(seed))
		nsyms := 1 + r.Intn(200)
		var sp, sub, cp SparseMultiset
		var de, deSub SymMultiset
		var held []Sym // occurrences currently in sp, for removals
		var diff []SymCount
		for step := 0; step < 400; step++ {
			if len(held) > 0 && r.Intn(5) < 2 {
				i := r.Intn(len(held))
				s := held[i]
				held = append(held[:i], held[i+1:]...)
				if sub.Count(s) == sp.Count(s) { // keep sub ⊆ sp
					sub.Add(s, -1)
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
					sub.Add(s, 1)
					deSub.Add(s, 1)
				}
			}
			if sp.Digest() != de.Digest() || sp.Size() != de.Size() {
				t.Fatalf("seed %d step %d: sparse digest/size %v/%d, dense %v/%d",
					seed, step, sp.Digest(), sp.Size(), de.Digest(), de.Size())
			}
			for s := Sym(0); int(s) <= nsyms; s++ {
				if sp.Count(s) != de.Count(s) {
					t.Fatalf("seed %d step %d: Count(%d) = %d, dense %d", seed, step, s, sp.Count(s), de.Count(s))
				}
			}

			cp.Set(&sp)
			if cp.Digest() != sp.Digest() || cp.Size() != sp.Size() || len(cp.ents) != len(sp.ents) {
				t.Fatalf("seed %d step %d: Set did not replicate contents", seed, step)
			}
			cp.Add(Sym(nsyms), 1)
			if sp.Count(Sym(nsyms)) != 0 {
				t.Fatalf("seed %d step %d: Set aliased its source", seed, step)
			}

			want := de.Clone()
			want.SubtractAll(&deSub)
			diff = sp.AppendDiff(diff[:0], &sub)
			size := 0
			for i, e := range diff {
				if e.N <= 0 || int(e.N) != want.Count(e.Sym) || (i > 0 && diff[i-1].Sym >= e.Sym) {
					t.Fatalf("seed %d step %d: AppendDiff entry %d = %+v (dense count %d) in %v",
						seed, step, i, e, want.Count(e.Sym), diff)
				}
				size += int(e.N)
			}
			if size != want.Size() {
				t.Fatalf("seed %d step %d: AppendDiff holds %d occurrences, dense difference %d", seed, step, size, want.Size())
			}
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
	var m, o SparseMultiset
	m.Add(2, 1)
	mustPanic("Add below zero", func() { m.Add(2, -2) })
	mustPanic("Add to absent symbol", func() { m.Add(1, -1) })
	o.Add(2, 2)
	mustPanic("AppendDiff count", func() { m.AppendDiff(nil, &o) })
	o = SparseMultiset{}
	o.Add(3, 1)
	mustPanic("AppendDiff absent symbol", func() { m.AppendDiff(nil, &o) })
}

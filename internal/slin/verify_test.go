package slin

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/trace"
)

// Commit-Order (Definition 30) rejections at m=1, where a switch-free
// trace needs no init or abort interpretation: every witness below
// passes Explains and Validity, so only the order check can refuse it.
func TestWitnessCommitOrderViolation(t *testing.T) {
	cases := []struct {
		name    string
		tr      trace.Trace
		commits map[int]trace.History
	}{
		{"incomparable, same length",
			trace.Trace{
				trace.Invoke("c1", 1, p("a")),
				trace.Invoke("c2", 1, p("b")),
				trace.Response("c1", 1, p("a"), d("a")),
				trace.Response("c2", 1, p("b"), d("b")),
			},
			map[int]trace.History{2: {p("a")}, 3: {p("b")}}},
		{"two responses given the same history",
			trace.Trace{
				trace.Invoke("c1", 1, p("a")),
				trace.Invoke("c2", 1, p("a")),
				trace.Response("c1", 1, p("a"), d("a")),
				trace.Response("c2", 1, p("a"), d("a")),
			},
			map[int]trace.History{2: {p("a")}, 3: {p("a")}}},
		{"different lengths diverging at position 0",
			trace.Trace{
				trace.Invoke("c1", 1, p("a")),
				trace.Invoke("c2", 1, p("b")),
				trace.Invoke("c3", 1, p("c")),
				trace.Response("c1", 1, p("a"), d("a")),
				trace.Response("c2", 1, p("b"), d("c")),
			},
			map[int]trace.History{3: {p("a")}, 4: {p("c"), p("b")}}},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			w := Witness{Commits: tt.commits}
			if err := VerifyWitness(adt.Consensus{}, ConsensusRInit{}, 1, 2, tt.tr, w, false); err == nil {
				t.Fatal("commit histories not totally ordered by strict prefix must be rejected")
			}
		})
	}
}

// commitOrderCase builds n overlapping register writes (values from a
// three-letter alphabet, so inputs repeat) and commit histories that
// all pass Explains and Validity: each is a sub-multiset of the invoked
// writes ending in its own. Only Commit-Order varies — a third of the
// histories drop or swap elements of the intended chain.
func commitOrderCase(r *rand.Rand) (trace.Trace, map[int]trace.History) {
	n := 2 + r.Intn(5)
	ins := make([]trace.Value, n)
	var tr trace.Trace
	for i := range ins {
		ins[i] = adt.WriteInput(string(rune('x' + r.Intn(3))))
		tr = append(tr, trace.Invoke(trace.ClientID(fmt.Sprint("c", i)), 1, ins[i]))
	}
	chain := r.Perm(n)
	commits := map[int]trace.History{}
	for k, i := range chain {
		g := make(trace.History, 0, k+1)
		for _, j := range chain[:k] {
			g = append(g, ins[j])
		}
		switch r.Intn(6) {
		case 0:
			if len(g) > 0 {
				g = g[1:]
			}
		case 1:
			if len(g) > 1 {
				g[0], g[len(g)-1] = g[len(g)-1], g[0]
			}
		}
		commits[len(tr)] = append(g, ins[i])
		tr = append(tr, trace.Response(trace.ClientID(fmt.Sprint("c", i)), 1, ins[i], adt.WriteOutput()))
	}
	return tr, commits
}

// The sort-plus-adjacent Commit-Order check accepts and rejects exactly
// what Definition 30's pairwise statement does.
func TestWitnessCommitOrderAgreesWithPairwise(t *testing.T) {
	r := rand.New(rand.NewSource(30))
	accepted, rejected := 0, 0
	for iter := 0; iter < 2000; iter++ {
		tr, commits := commitOrderCase(r)
		want := true
		for i, gi := range commits {
			for j, gj := range commits {
				if i < j && !gi.IsStrictPrefixOf(gj) && !gj.IsStrictPrefixOf(gi) {
					want = false
				}
			}
		}
		err := VerifyWitness(adt.Register{}, ConsensusRInit{}, 1, 2, tr, Witness{Commits: commits}, false)
		if (err == nil) != want {
			t.Fatalf("pairwise Commit-Order says %v, VerifyWitness says %v\ntrace: %v\ncommits: %v", want, err, tr, commits)
		}
		if want {
			accepted++
		} else {
			rejected++
		}
	}
	if accepted == 0 || rejected == 0 {
		t.Fatalf("generator is one-sided: %d accepted, %d rejected", accepted, rejected)
	}
}

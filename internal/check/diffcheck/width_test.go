package diffcheck

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/lin"
	"repro/internal/slin"
	"repro/internal/trace"
	"repro/internal/workload"
)

// widthSession is what the width property reads of lin's and slin's
// exact sessions.
type widthSession interface {
	Feed(trace.Action) error
	Nodes() int
	Width() int
}

// widthSessions opens one exact lin session and one exact slin session at
// (1,2), which runs lin's engine, over f.
func widthSessions(t *testing.T, f adt.Folder) map[string]widthSession {
	t.Helper()
	sl, err := slin.NewSession(context.Background(), f, slin.UniversalRInit{}, 1, 2, check.WithWitness(false))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]widthSession{
		"lin":  lin.NewSession(context.Background(), f, check.WithWitness(false)),
		"slin": sl,
	}
}

// feedWithinSpend feeds tr to s and asserts DESIGN.md decision 34's width
// bound after every response: the frontier is at most twice as wide as
// the nodes that response's feed spent, and no wider than them when no
// other open operation shares the response's input. It returns the
// largest width-to-spend ratio seen.
func feedWithinSpend(t *testing.T, name string, s widthSession, tr trace.Trace) float64 {
	t.Helper()
	open := map[trace.Value]int{}
	worst := 0.0
	for i, a := range tr {
		if a.Kind == trace.Inv {
			open[a.Input]++
		}
		before := s.Nodes()
		if err := s.Feed(a); err != nil {
			t.Fatalf("%s action %d: %v", name, i, err)
		}
		if a.Kind != trace.Res {
			continue
		}
		bound, spent := 2, s.Nodes()-before
		if open[a.Input] == 1 {
			bound = 1
		}
		open[a.Input]--
		if w := s.Width(); w > bound*spent {
			t.Fatalf("%s action %d (%v): %d configurations after a feed that spent %d nodes, want at most %d× that",
				name, i, a, w, spent, bound)
		} else if spent > 0 {
			worst = max(worst, float64(w)/float64(spent))
		}
	}
	return worst
}

// TestWidthWithinFeedSpend is the property that makes a per-feed budget
// bound memory as well as time (DESIGN.md, decision 34): Expand charges a
// node per configuration and per extension step, and each emits at most
// two successors, or one when the response's input is distinct from every
// other open one. It runs lin's and slin's exact sessions on the overlap
// stream — long-pending holders, tagged inputs, k up to 8 — and on the
// random traces of the differential suites, tagged and untagged.
func TestWidthWithinFeedSpend(t *testing.T) {
	var overlap trace.Trace
	g := workload.NewOverlap(rand.New(rand.NewSource(1)))
	for cycle := 0; cycle < 3; cycle++ {
		for _, sh := range append(overlapShapes, overlapShape{4, 8}, overlapShape{6, 4}, overlapShape{8, 2}) {
			tr, _ := g.Round(sh.k, sh.n)
			overlap = append(overlap, tr...)
		}
	}
	for name, s := range widthSessions(t, adt.Set{}) {
		t.Logf("%s overlap stream: width at most %.2f× the feed's nodes", name, feedWithinSpend(t, name+" overlap", s, overlap))
	}

	for _, tc := range adtCases {
		worst := map[string]float64{}
		r := rand.New(rand.NewSource(34))
		for i := 0; i < 150; i++ {
			opts := workload.TraceOpts{
				Clients: 2 + r.Intn(3), Ops: 3 + r.Intn(4), Inputs: tc.inputs,
				PendingProb: 0.2, UniqueTags: i%2 == 0,
			}
			if i%3 == 1 {
				opts.CorruptProb = 0.5
			}
			tr := workload.Random(tc.f, r, opts)
			if !tr.WellFormed() {
				t.Fatalf("%s trace %d is not well-formed", tc.name, i)
			}
			for name, s := range widthSessions(t, tc.f) {
				worst[name] = max(worst[name], feedWithinSpend(t, tc.name+" "+name+" trace "+strconv.Itoa(i), s, tr))
			}
		}
		t.Logf("%s random traces: width at most %v× the feed's nodes", tc.name, worst)
	}
}

// TestOverlapRoundsHoldingEveryElement: with k ≥ 4 holders the holders
// can hold all OverlapElems elements, and the driver then runs only has —
// the round terminates and stays linearizable.
func TestOverlapRoundsHoldingEveryElement(t *testing.T) {
	everyHeld := 0
	for _, k := range []int{4, 6, 8} {
		for seed := int64(1); seed <= 40; seed++ {
			g := workload.NewOverlap(rand.New(rand.NewSource(seed)))
			s := newOverlapSession()
			for round := 0; round < 2; round++ {
				tr, _ := g.Round(k, 16)
				held := map[trace.Value]bool{}
				for _, a := range tr[:k] {
					held[adt.Untag(a.Input)] = true
				}
				if len(held) == workload.OverlapElems {
					everyHeld++
					for _, a := range tr[k : k+32] {
						if a.Client == "d" && !held[adt.Untag(a.Input)] {
							t.Fatalf("k %d seed %d: every element held, yet the driver runs %v", k, seed, a.Input)
						}
					}
				}
				if err := s.FeedAll(tr); err != nil {
					t.Fatalf("k %d seed %d round %d: %v", k, seed, round, err)
				}
			}
			if v := s.Verdict(); v != check.Linearizable {
				t.Fatalf("k %d seed %d: verdict %v", k, seed, v)
			}
		}
	}
	if everyHeld == 0 {
		t.Fatal("no round had its holders hold every element")
	}
	t.Logf("%d rounds with every element held", everyHeld)
}

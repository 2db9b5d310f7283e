package diffcheck

import (
	"context"
	"math/rand"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/lin"
	"repro/internal/slin"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The long-pending-operation shapes (ROADMAP item 1's gate): in one round
// k holder clients each invoke a tagged has(v) and stay open while one
// driver client runs n sequential add/rm/has operations over a 4-element
// set; the holders then respond with the membership they saw at their
// invocation. The round is linearizable (every holder linearizes where
// it was invoked) while the exact engine has to carry k open operations
// across n others — checker cost is a function of concurrently open
// operations (Hamza), and the shapes vary exactly that.
type overlapShape struct{ k, n int }

var overlapShapes = []overlapShape{{1, 4}, {1, 16}, {2, 4}, {1, 32}, {2, 8}, {3, 4}}

// overlapNodes is the exact number of search nodes a round of each shape
// costs the frontier engine, in any cycle of a stream cycling through
// overlapShapes: every holder has responded when a round ends, so the
// next one starts from a single configuration. The driver never adds or
// removes an element a holder has open, so every holder stays
// linearizable at every point of its window: the frontier is as wide as
// the shape admits — 2^k configurations, each holder linearized already
// or not (lin's TestSessionWidthBoundedByOverlap reads the width itself)
// — and the counts depend neither on the seed's luck nor on how much
// history came before.
var overlapNodes = map[overlapShape]int{
	{1, 4}: 21, {1, 16}: 81, {2, 4}: 51, {1, 32}: 161, {2, 8}: 99, {3, 4}: 120,
}

// overlapGen generates rounds of one stream deterministically from its
// seed (workload.Overlap, the generator the engine-layer tests and
// benchmark in internal/lin share).
type overlapGen struct {
	r *rand.Rand
	w *workload.Overlap
}

// round returns the actions of one round of shape sh and the index of
// its first holder response.
func (g *overlapGen) round(sh overlapShape) (tr trace.Trace, firstHolderRes int) {
	if g.w == nil {
		g.w = workload.NewOverlap(g.r)
	}
	return g.w.Round(sh.k, sh.n)
}

func newOverlapSession(opts ...check.Option) *lin.Session {
	return lin.NewSession(context.Background(), adt.Set{},
		append([]check.Option{check.WithFeedBudget(true), check.WithWitness(false)}, opts...)...)
}

// TestOverlapNodeCounts asserts the exact per-round node counts of every
// shape over 30 cycles and three seeds (the totals are what the
// stream-overlap workload of bench/ reports for the same shapes from an
// independently written generator), with the witness chain off and on —
// it is storage only — and the bound the counts are an instance of: at a fixed
// number k of open operations a round's cost per operation does not
// grow with the round's length n.
func TestOverlapNodeCounts(t *testing.T) {
	for _, witness := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			g := &overlapGen{r: rand.New(rand.NewSource(seed))}
			s := newOverlapSession(check.WithWitness(witness))
			for cycle := 0; cycle < 30; cycle++ {
				for _, sh := range overlapShapes {
					tr, _ := g.round(sh)
					before := s.Nodes()
					if err := s.FeedAll(tr); err != nil {
						t.Fatalf("witness %v seed %d cycle %d shape %v: %v", witness, seed, cycle, sh, err)
					}
					if got, want := s.Nodes()-before, overlapNodes[sh]; got != want {
						t.Fatalf("witness %v seed %d cycle %d shape %v: %d nodes, want %d", witness, seed, cycle, sh, got, want)
					}
				}
			}
			if v := s.Verdict(); v != check.Linearizable {
				t.Fatalf("witness %v seed %d: verdict %v", witness, seed, v)
			}
			if s.Nodes() != 15990 {
				t.Fatalf("witness %v seed %d: %d nodes over 30 cycles; want 15990", witness, seed, s.Nodes())
			}
		}
	}
	perOp := func(sh overlapShape) float64 { return float64(overlapNodes[sh]) / float64(sh.k+sh.n) }
	for _, pair := range [][2]overlapShape{{{1, 4}, {1, 16}}, {{1, 4}, {1, 32}}, {{2, 4}, {2, 8}}} {
		if short, long := perOp(pair[0]), perOp(pair[1]); long > 1.5*short {
			t.Errorf("shape %v costs %.1f nodes per operation, %v only %.1f: cost grows with how long an operation stays open",
				pair[1], long, pair[0], short)
		}
	}
}

// TestOverlapAgreesWithCheck: on every shape, and on a whole cycle, the
// session's verdict equals one-shot Check's — Linearizable as generated,
// NotLinearizable once a round's first holder output is flipped.
func TestOverlapAgreesWithCheck(t *testing.T) {
	ctx := context.Background()
	flip := map[trace.Value]trace.Value{adt.BoolOutput(false): adt.BoolOutput(true), adt.BoolOutput(true): adt.BoolOutput(false)}
	verdicts := func(name string, tr trace.Trace, want bool) {
		t.Helper()
		one, err := lin.Check(ctx, adt.Set{}, tr, check.WithWitness(false))
		if err != nil {
			t.Fatalf("%s one-shot: %v", name, err)
		}
		s := newOverlapSession()
		if err := s.FeedAll(tr); err != nil {
			t.Fatalf("%s session: %v", name, err)
		}
		if got := s.Verdict() == check.Linearizable; got != one.OK || got != want {
			t.Fatalf("%s: session %v, one-shot %v, want %v", name, got, one.OK, want)
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		name := "seed " + strconv.FormatInt(seed, 10)
		// One round of each shape on its own (from the empty set), clean and
		// with its first holder response flipped; then a whole cycle as one
		// trace.
		g := &overlapGen{r: rand.New(rand.NewSource(seed))}
		var cycle trace.Trace
		for _, sh := range overlapShapes {
			tr, hr := (&overlapGen{r: rand.New(rand.NewSource(seed))}).round(sh)
			shape := name + " k" + strconv.Itoa(sh.k) + "n" + strconv.Itoa(sh.n)
			verdicts(shape, tr, true)
			tr[hr].Output = flip[tr[hr].Output]
			verdicts(shape+" corrupted", tr, false)

			tr, _ = g.round(sh)
			cycle = append(cycle, tr...)
		}
		verdicts(name+" cycle", cycle, true)
	}
}

// TestOverlapFeedAllocsHistoryIndependent is the history-independence
// gate, by allocation rather than wall clock: over 36 cycles of the six
// shapes, Feed allocates no more in the last six cycles than in the
// first six (1.25x covers pool warm-up and interner growth), for lin's
// session and for slin's at (1,2), which runs the same engine. A
// configuration that carries anything sized by the history — the dense
// per-symbol count vectors these engines used to clone per emitted
// configuration, or a valid-inputs snapshot per invocation — makes the
// bytes grow with the cycle index.
func TestOverlapFeedAllocsHistoryIndependent(t *testing.T) {
	sl, err := slin.NewSession(context.Background(), adt.Set{}, slin.ConsensusRInit{}, 1, 2,
		check.WithFeedBudget(true), check.WithWitness(false))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []interface {
		FeedAll(trace.Trace) error
		Verdict() check.Verdict
	}{newOverlapSession(), sl} {
		g := &overlapGen{r: rand.New(rand.NewSource(1))}
		feedBytes := func(cycles int) uint64 {
			var trs []trace.Trace
			for i := 0; i < cycles; i++ {
				for _, sh := range overlapShapes {
					tr, _ := g.round(sh)
					trs = append(trs, tr)
				}
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			for _, tr := range trs {
				if err := s.FeedAll(tr); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&m1)
			return m1.TotalAlloc - m0.TotalAlloc
		}
		first := feedBytes(6)
		feedBytes(24)
		last := feedBytes(6)
		if v := s.Verdict(); v != check.Linearizable {
			t.Fatalf("%T: verdict %v", s, v)
		}
		t.Logf("%T: Feed allocated %d bytes in cycles 1-6, %d in cycles 31-36 (ratio %.2f)", s, first, last, float64(last)/float64(first))
		if float64(last) > 1.25*float64(first) {
			t.Fatalf("%T: Feed allocations grow with history: %d bytes in cycles 1-6, %d in cycles 31-36", s, first, last)
		}
	}
}

// TestOverlapTheorem2NodeForNode: on three cycles of the six shapes,
// slin at (1,2) runs lin's engine node for node — one-shot, and online
// after every action. (slin's own engine spent 2 304 nodes one-shot
// where lin spends 1 599.)
func TestOverlapTheorem2NodeForNode(t *testing.T) {
	ctx := context.Background()
	g := &overlapGen{r: rand.New(rand.NewSource(1))}
	var tr trace.Trace
	for cycle := 0; cycle < 3; cycle++ {
		for _, sh := range overlapShapes {
			round, _ := g.round(sh)
			tr = append(tr, round...)
		}
	}
	one, err := lin.Check(ctx, adt.Set{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	viaSLin, err := slin.CheckLin(ctx, adt.Set{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !one.OK || one.Nodes != 1599 || viaSLin.OK != one.OK || viaSLin.Nodes != one.Nodes {
		t.Fatalf("one-shot: lin %v in %d nodes (want 1599), slin(1,2) %v in %d", one.OK, one.Nodes, viaSLin.OK, viaSLin.Nodes)
	}
	ls := lin.NewSession(ctx, adt.Set{})
	ss, err := slin.NewSession(ctx, adt.Set{}, slin.UniversalRInit{}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k, a := range tr {
		if err := ls.Feed(a); err != nil {
			t.Fatal(err)
		}
		if err := ss.Feed(a); err != nil {
			t.Fatal(err)
		}
		if ls.Verdict() != ss.Verdict() || ls.Nodes() != ss.Nodes() {
			t.Fatalf("online after action %d: lin %v in %d nodes, slin(1,2) %v in %d", k, ls.Verdict(), ls.Nodes(), ss.Verdict(), ss.Nodes())
		}
	}
}

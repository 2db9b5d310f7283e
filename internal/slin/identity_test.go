package slin

// Tests for the configuration identity (DESIGN.md, decision 29): the
// position-free identity's node pins, when the ordered identity runs —
// one-shot Check on a trace carrying an order-sensitive abort, an online
// session from the first such abort on, after a replay — and a
// differential of both identities on the generated phase traces.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
	"repro/internal/workload"
)

// ordered is the test-only switch that puts a fresh session on the
// ordered identity from its first action.
func ordered(s *Session) *Session {
	s.ordered = true
	s.refreshRecording()
	if err := s.rebuild(); err != nil {
		panic(err) // nothing fed yet: a rebuild spends nothing
	}
	return s
}

// checkAs is one-shot Check, on the ordered identity when pos is set.
func checkAs(pos bool, f adt.Folder, rinit RInit, m, n int, tr trace.Trace, opts ...check.Option) (Result, error) {
	s, err := NewSession(context.Background(), f, rinit, m, n, opts...)
	if err != nil {
		return Result{}, err
	}
	if pos {
		ordered(s)
	}
	return s.checkWhole(tr)
}

// feedAs is an online session fed tr, on the ordered identity when pos
// is set.
func feedAs(pos bool, f adt.Folder, rinit RInit, m, n int, tr trace.Trace, opts ...check.Option) (Result, error) {
	s, err := NewSession(context.Background(), f, rinit, m, n, opts...)
	if err != nil {
		return Result{}, err
	}
	if pos {
		ordered(s)
	}
	if err := s.FeedAll(tr); err != nil {
		return Result{}, err
	}
	return s.Result()
}

// orderSensitive strips any OrderInsensitive declaration off the wrapped
// relation (interface embedding promotes only RInit's methods), so tests
// can exercise the ordered identity with relations whose production
// form declares order insensitivity.
type orderSensitive struct{ RInit }

// commutingAbortTrace is an abort-carrying fixture whose same-value
// proposals commute: w tagged proposals of "a", all but the last
// responded, the last aborting.
func commutingAbortTrace(w int) trace.Trace {
	var tr trace.Trace
	for i := 0; i < w; i++ {
		c := trace.ClientID(fmt.Sprintf("p%d", i))
		tr = append(tr, trace.Invoke(c, 1, adt.Tag(adt.ProposeInput("a"), string(c))))
	}
	for i := 0; i < w-1; i++ {
		c := trace.ClientID(fmt.Sprintf("p%d", i))
		in := adt.Tag(adt.ProposeInput("a"), string(c))
		tr = append(tr, trace.Response(c, 1, in, adt.DecideOutput("a")))
	}
	last := trace.ClientID(fmt.Sprintf("p%d", w-1))
	return append(tr, trace.Switch(last, 2, adt.Tag(adt.ProposeInput("a"), string(last)), "a"))
}

// splitAbortTrace is the split-decision workload plus one aborting
// client: never SLin(1,2), so the search exhausts every commit order
// before rejecting.
func splitAbortTrace(w int) trace.Trace {
	tr := workload.SplitDecision(w, "p")
	in := adt.Tag(adt.ProposeInput("v0"), "pa")
	tr = append(tr, trace.Invoke("pa", 1, in))
	return append(tr, trace.Switch("pa", 2, in, "v0"))
}

// TestSLinPORAccounting pins what the position-free identity spends where
// the sleep-set reducer it replaced used to prune: the commuting-abort
// fixture one-shot under ConsensusRInit, and the switch-free split
// decision, at most the reducer's 47 / 104 / 233 / 522. The pins follow
// lin's node accounting — an extension branch costs a node when it is
// tried, a visited one included — and its lookahead, which slin's own
// engine did not have: 199 / 456 / 1 033 / 2 314 for w = 6…9 (that engine
// spent 190 / 382 / 766 / 1 534, the reducer 1 068 / 3 749 / 13 296 /
// 47 539, and the ordered search far more).
func TestSLinPORAccounting(t *testing.T) {
	for w, want := range map[int]int{6: 199, 7: 456, 8: 1033, 9: 2314} {
		tr := commutingAbortTrace(w)
		free, err := checkAs(false, adt.Consensus{}, ConsensusRInit{}, 1, 2, tr)
		if err != nil || !free.OK || free.Nodes != want {
			t.Errorf("commuting abort w=%d: %v, %d nodes (%v); want SLin in %d nodes", w, free.OK, free.Nodes, err, want)
		}
		if w > 7 {
			continue // the ordered search grows factorially
		}
		pos, err := checkAs(true, adt.Consensus{}, ConsensusRInit{}, 1, 2, tr, check.WithBudget(50_000_000))
		if err != nil || !pos.OK || pos.Nodes <= free.Nodes {
			t.Errorf("commuting abort w=%d: ordered %v in %d nodes (%v), position-free %d", w, pos.OK, pos.Nodes, err, free.Nodes)
		}
	}
	for w, ceiling := range map[int]int{4: 47, 5: 104, 6: 233, 7: 522} {
		res, err := Check(context.Background(), adt.Consensus{}, UniversalRInit{}, 1, 2, workload.SplitDecision(w, "p"))
		if err != nil || res.OK || res.Nodes > ceiling {
			t.Errorf("split decision w=%d: %v in %d nodes (%v); want a rejection in at most %d", w, res.OK, res.Nodes, err, ceiling)
		}
	}
}

// TestSLinPORDisabledOnAborts: with an order-sensitive relation an abort
// makes chain order observable, so one-shot Check runs the ordered
// identity on a trace carrying one — exactly the forced ordered run —
// and the position-free one on the same trace without it. (ConsensusRInit
// itself declares order insensitivity, so the fixture wraps it.)
func TestSLinPORDisabledOnAborts(t *testing.T) {
	rinit := orderSensitive{ConsensusRInit{}}
	tr := commutingAbortTrace(5)
	for _, c := range []struct {
		tr      trace.Trace
		samePos bool
	}{{tr, true}, {tr[:len(tr)-1], false}} {
		got, err := checkAs(false, adt.Consensus{}, rinit, 1, 2, c.tr)
		if err != nil {
			t.Fatal(err)
		}
		pos, err := checkAs(true, adt.Consensus{}, rinit, 1, 2, c.tr)
		if err != nil {
			t.Fatal(err)
		}
		if got.OK != pos.OK || (got.Nodes == pos.Nodes) != c.samePos {
			t.Fatalf("abort %v: Check (%v, %d nodes), ordered (%v, %d nodes)",
				c.samePos, got.OK, got.Nodes, pos.OK, pos.Nodes)
		}
	}
}

// TestSLinPORSurvivesAborts: a relation declaring its Admits predicate
// order-insensitive (ConsensusRInit) keeps the position-free identity on
// abort-carrying traces — one-shot with the ordered verdict in fewer
// nodes, and online with no switch, agreeing with one-shot Check on
// every prefix.
func TestSLinPORSurvivesAborts(t *testing.T) {
	ctx := context.Background()
	tr := splitAbortTrace(6)
	free, err := checkAs(false, adt.Consensus{}, ConsensusRInit{}, 1, 2, tr)
	if err != nil {
		t.Fatal(err)
	}
	pos, err := checkAs(true, adt.Consensus{}, ConsensusRInit{}, 1, 2, tr, check.WithBudget(50_000_000))
	if err != nil {
		t.Fatal(err)
	}
	if free.OK || pos.OK || free.Nodes >= pos.Nodes {
		t.Fatalf("split decision with an abort: position-free (%v, %d nodes), ordered (%v, %d nodes)",
			free.OK, free.Nodes, pos.OK, pos.Nodes)
	}
	s, err := NewSession(ctx, adt.Consensus{}, ConsensusRInit{}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	for k, a := range tr {
		if err := s.Feed(a); err != nil {
			t.Fatalf("feed %d: %v", k, err)
		}
		got, err := s.Result()
		if err != nil {
			t.Fatalf("prefix %d: %v", k+1, err)
		}
		want, err := Check(ctx, adt.Consensus{}, ConsensusRInit{}, 1, 2, tr[:k+1])
		if err != nil {
			t.Fatalf("one-shot prefix %d: %v", k+1, err)
		}
		if got.OK != want.OK {
			t.Fatalf("prefix %d: session %v, one-shot %v", k+1, got.OK, want.OK)
		}
	}
	if s.ordered || s.t != nil {
		t.Fatal("an order-insensitive session switched identity or kept its trace")
	}
}

// readsAbortTrace is a register trace whose abort history must be the
// commit chain in one order: two reads commute, and UniversalRInit admits
// only the encoded history [r2, r1, r3] for the third read's abort. The
// position-free identity merges the chains [r1, r2] and [r2, r1], keeping
// the first; only the ordered one keeps the order the abort needs.
func readsAbortTrace() trace.Trace {
	r := func(i int) trace.Value { return adt.Tag(adt.ReadInput(), fmt.Sprint(i)) }
	out := adt.ReadOutput(adt.Bottom)
	return trace.Trace{
		trace.Invoke("c1", 1, r(1)), trace.Invoke("c2", 1, r(2)),
		trace.Response("c1", 1, r(1), out), trace.Response("c2", 1, r(2), out),
		trace.Invoke("c3", 1, r(3)),
		trace.Switch("c3", 2, r(3), EncodeHistory(trace.History{r(2), r(1), r(3)})),
	}
}

// TestSLinSessionAbortRebuild: under an order-sensitive relation an online
// session stays position-free until the first abort, replays the fed
// trace under the ordered identity there, and agrees with one-shot
// Check on every prefix, witnesses included — on the register fixture
// whose abort rejects the order the position-free identity kept.
func TestSLinSessionAbortRebuild(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		f     adt.Folder
		rinit RInit
		tr    trace.Trace
	}{
		{adt.Register{}, UniversalRInit{}, readsAbortTrace()},
		{adt.Consensus{}, orderSensitive{ConsensusRInit{}}, commutingAbortTrace(4)},
	} {
		s, err := NewSession(ctx, c.f, c.rinit, 1, 2)
		if err != nil {
			t.Fatal(err)
		}
		for k, a := range c.tr {
			if err := s.Feed(a); err != nil {
				t.Fatalf("feed %d: %v", k, err)
			}
			got, err := s.Result()
			if err != nil {
				t.Fatalf("prefix %d: %v", k+1, err)
			}
			want, err := Check(ctx, c.f, c.rinit, 1, 2, c.tr[:k+1])
			if err != nil {
				t.Fatalf("one-shot prefix %d: %v", k+1, err)
			}
			if got.OK != want.OK || !got.OK {
				t.Fatalf("%s prefix %d: session %v, one-shot %v; want SLin", c.f.Name(), k+1, got.OK, want.OK)
			}
			for _, w := range got.Witnesses {
				if err := VerifyWitness(c.f, c.rinit, 1, 2, c.tr[:k+1], w, false); err != nil {
					t.Fatalf("prefix %d: %v", k+1, err)
				}
			}
			if s.ordered != a.IsAbort(2) {
				t.Fatalf("feed %d (%v): ordered %v", k, a, s.ordered)
			}
		}
		if s.t != nil {
			t.Fatal("the session kept its trace past the switch")
		}
	}
	// Without the ordered identity the fixture's abort fails.
	if res, err := checkAs(false, adt.Register{}, orderInsensitive{UniversalRInit{}}, 1, 2, readsAbortTrace()); err != nil || res.OK {
		t.Fatalf("position-free check of the reads fixture: %v (%v); the fixture no longer needs the replay", res.OK, err)
	}
}

// orderInsensitive declares the wrapped relation order-insensitive, truly
// or not.
type orderInsensitive struct{ RInit }

func (orderInsensitive) AdmitsOrderInsensitive() bool { return true }

// TestSLinBudgetAndCancelUnderPOR: budget exhaustion and cancellation
// return their error values under both identities. The budget is per fed
// action (DESIGN.md, decision 34): 2 nodes, where the first response's
// expansion through four other open proposals spends more.
func TestSLinBudgetAndCancelUnderPOR(t *testing.T) {
	tr := workload.SplitDecision(5, "p")
	for _, pos := range []bool{false, true} {
		res, err := checkAs(pos, adt.Consensus{}, UniversalRInit{}, 1, 2, tr, check.WithBudget(2))
		if !errors.Is(err, ErrBudget) || res.OK {
			t.Fatalf("ordered=%v: %+v, %v; want an undecided ErrBudget", pos, res, err)
		}
		if _, err := feedAs(pos, adt.Consensus{}, UniversalRInit{}, 1, 2, tr, check.WithBudget(2)); !errors.Is(err, ErrBudget) {
			t.Fatalf("ordered=%v session: %v; want ErrBudget", pos, err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Check(ctx, adt.Consensus{}, UniversalRInit{}, 1, 2, tr); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
	s, err := NewSession(ctx, adt.Consensus{}, UniversalRInit{}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.FeedAll(tr); !errors.Is(err, context.Canceled) {
		t.Fatalf("session: expected context.Canceled, got %v", err)
	}
}

// TestSLinIdentityDifferential runs both identities, one-shot and online,
// on E6b's two schedule families (seed 9) and on first- and second-phase
// seeds, under the order-insensitive and an order-sensitive relation and
// both Abort-Order readings: the verdicts must be equal, every witness
// must verify, and the position-free identity must never spend more
// nodes than the ordered one — save an online session that replays
// at an order-sensitive abort, which spends its position-free prefix on
// top.
func TestSLinIdentityDifferential(t *testing.T) {
	type family struct {
		name  string
		m     int
		seed  int64
		count int
		gen   func(r *rand.Rand) trace.Trace
	}
	count := 100
	if testing.Short() {
		count = 15
	}
	var families []family
	for _, noLate := range []bool{true, false} {
		families = append(families, family{fmt.Sprintf("E6b noLateOps=%v", noLate), 1, 9, count,
			func(r *rand.Rand) trace.Trace {
				return workload.FirstPhase(r, workload.PhaseOpts{Clients: 3, NoLateOps: noLate})
			}})
	}
	families = append(families,
		family{"first phase", 1, 31, count, func(r *rand.Rand) trace.Trace {
			return workload.FirstPhase(r, workload.PhaseOpts{Clients: 2 + r.Intn(3), ViolateProb: 0.3})
		}},
		family{"second phase", 2, 32, count, func(r *rand.Rand) trace.Trace {
			return workload.SecondPhase(r, 2, workload.PhaseOpts{Clients: 2 + r.Intn(2), ViolateProb: 0.3})
		}})
	runs := map[string]func(bool, adt.Folder, RInit, int, int, trace.Trace, ...check.Option) (Result, error){
		"one-shot": checkAs, "online": feedAs,
	}
	checks := 0
	for _, fam := range families {
		r := rand.New(rand.NewSource(fam.seed))
		for i := 0; i < fam.count; i++ {
			tr := fam.gen(r)
			aborts := false
			for _, a := range tr {
				aborts = aborts || a.IsAbort(fam.m+1)
			}
			for _, rinit := range []RInit{ConsensusRInit{Probe: i%2 == 0}, orderSensitive{ConsensusRInit{}}} {
				for _, temporal := range []bool{false, true} {
					order := check.WithTemporalAbortOrder(temporal)
					var verdicts []bool
					for mode, run := range runs {
						var nodes [2]int
						for k, pos := range []bool{false, true} {
							res, err := run(pos, adt.Consensus{}, rinit, fam.m, fam.m+1, tr, order)
							if err != nil {
								t.Fatalf("%s %d %s ordered=%v: %v", fam.name, i, mode, pos, err)
							}
							for _, w := range res.Witnesses {
								if err := VerifyWitness(adt.Consensus{}, rinit, fam.m, fam.m+1, tr, w, temporal); err != nil {
									t.Fatalf("%s %d %s ordered=%v: %v\ntrace: %v", fam.name, i, mode, pos, err, tr)
								}
							}
							verdicts = append(verdicts, res.OK)
							nodes[k] = res.Nodes
							checks++
						}
						replays := mode == "online" && aborts && !IsOrderInsensitive(rinit)
						if nodes[0] > nodes[1] && !replays {
							t.Errorf("%s %d %s %T temporal=%v: position-free %d nodes, ordered %d\ntrace: %v",
								fam.name, i, mode, rinit, temporal, nodes[0], nodes[1], tr)
						}
					}
					for _, v := range verdicts[1:] {
						if v != verdicts[0] {
							t.Fatalf("%s %d %T temporal=%v: verdicts %v\ntrace: %v", fam.name, i, rinit, temporal, verdicts, tr)
						}
					}
				}
			}
		}
	}
	t.Logf("%d checks", checks)
}

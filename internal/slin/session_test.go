package slin

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestSLinSessionAgreesWithCheck is the incremental SLin engine's
// property test: feeding randomized phase traces action by action must
// reproduce the one-shot Check verdict on every prefix, for first phases
// (m = 1), second phases (m = 2, init actions trigger combination
// rebuilds), both Abort-Order semantics, and clean as well as violating
// schedules.
func TestSLinSessionAgreesWithCheck(t *testing.T) {
	ctx := context.Background()
	run := func(t *testing.T, m, n int, gen func(r *rand.Rand, i int) trace.Trace) {
		r := rand.New(rand.NewSource(int64(m)*1000 + 7))
		for i := 0; i < 120; i++ {
			tr := gen(r, i)
			temporal := i%4 < 2
			opts := []check.Option{check.WithTemporalAbortOrder(temporal)}
			s, err := NewSession(ctx, adt.Consensus{}, ConsensusRInit{Probe: i%5 == 0}, m, n, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for k, a := range tr {
				if err := s.Feed(a); err != nil {
					t.Fatalf("case %d feed %d: %v", i, k, err)
				}
				prefix := tr[:k+1]
				want, err := Check(ctx, adt.Consensus{}, ConsensusRInit{Probe: i%5 == 0}, m, n, prefix, opts...)
				if err != nil {
					t.Fatalf("case %d prefix %d one-shot: %v", i, k+1, err)
				}
				got, err := s.Result()
				if err != nil {
					t.Fatalf("case %d prefix %d session: %v", i, k+1, err)
				}
				if got.OK != want.OK {
					t.Fatalf("case %d prefix %d (m=%d n=%d temporal=%v): session %v, one-shot %v\nprefix: %v",
						i, k+1, m, n, temporal, got.OK, want.OK, prefix)
				}
			}
		}
	}
	t.Run("first-phase", func(t *testing.T) {
		run(t, 1, 2, func(r *rand.Rand, i int) trace.Trace {
			opts := workload.PhaseOpts{Clients: 2 + r.Intn(2), NoLateOps: i%2 == 0}
			if i%3 == 0 {
				opts.ViolateProb = 0.4
			}
			return workload.FirstPhase(r, opts)
		})
	})
	t.Run("second-phase", func(t *testing.T) {
		run(t, 2, 3, func(r *rand.Rand, i int) trace.Trace {
			opts := workload.PhaseOpts{Clients: 2 + r.Intn(2)}
			if i%3 == 0 {
				opts.ViolateProb = 0.4
			}
			return workload.SecondPhase(r, 2, opts)
		})
	})
}

// TestSLinSessionBudgetExhaustion asserts budget errors are terminal with
// verdict Unknown.
func TestSLinSessionBudgetExhaustion(t *testing.T) {
	s, err := NewSession(context.Background(), adt.Consensus{}, ConsensusRInit{}, 1, 2,
		check.WithBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	var ferr error
	for _, a := range slinTestTrace() {
		if ferr = s.Feed(a); ferr != nil {
			break
		}
	}
	if ferr == nil {
		_, ferr = s.Result()
	}
	if !errors.Is(ferr, ErrBudget) {
		t.Fatalf("expected ErrBudget, got %v", ferr)
	}
	if v := s.Verdict(); v != check.Unknown {
		t.Fatalf("verdict = %v, want Unknown", v)
	}
}

// TestSLinSessionBudgetPerFeed pins the budget's unit for the SLin
// engine (DESIGN.md, decision 34): a long sequential phase-1 stream of
// cheap increments decides under a budget it spends many times over in
// all, and exhaustion within one Feed is terminal. (Before decision 34
// one budget spanned the whole session by default, and this stream
// exhausted it.)
func TestSLinSessionBudgetPerFeed(t *testing.T) {
	feed := func(s *Session, pairs int) error {
		for c := 0; c < pairs; c++ {
			cid := trace.ClientID(fmt.Sprintf("q%d", c))
			in := adt.Tag(adt.ProposeInput("a"), string(cid))
			if err := s.Feed(trace.Invoke(cid, 1, in)); err != nil {
				return err
			}
			if err := s.Feed(trace.Response(cid, 1, in, adt.DecideOutput("a"))); err != nil {
				return err
			}
		}
		return nil
	}
	const budget = 30
	per, err := NewSession(context.Background(), adt.Consensus{}, ConsensusRInit{}, 1, 2,
		check.WithBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	if ferr := feed(per, 64); ferr != nil {
		t.Fatalf("budget %d exhausted on cheap increments: %v", budget, ferr)
	}
	if per.Nodes() <= 4*budget {
		t.Fatalf("the stream spent %d nodes in all, want several budgets of %d", per.Nodes(), budget)
	}
	if r, rerr := per.Result(); rerr != nil || !r.OK {
		t.Fatalf("session result = %+v, %v", r, rerr)
	}
	// Exhaustion within a single Feed is still terminal and sticky.
	wide, err := NewSession(context.Background(), adt.Consensus{}, ConsensusRInit{}, 1, 2,
		check.WithBudget(1))
	if err != nil {
		t.Fatal(err)
	}
	var ferr error
	for c := 0; c < 6 && ferr == nil; c++ {
		cid := trace.ClientID(fmt.Sprintf("q%d", c))
		ferr = wide.Feed(trace.Invoke(cid, 1, adt.Tag(adt.ProposeInput(string(rune('a'+c))), string(cid))))
	}
	if ferr == nil {
		ferr = wide.Feed(trace.Response("q0", 1, adt.Tag(adt.ProposeInput("a"), "q0"), adt.DecideOutput("a")))
	}
	if !errors.Is(ferr, ErrBudget) {
		t.Fatalf("expensive feed = %v, want ErrBudget", ferr)
	}
	if v := wide.Verdict(); v != check.Unknown {
		t.Fatalf("verdict = %v, want Unknown", v)
	}
	if serr := wide.Feed(trace.Invoke("q9", 1, adt.Tag(adt.ProposeInput("a"), "q9"))); !errors.Is(serr, ErrBudget) {
		t.Fatalf("budget error not sticky: %v", serr)
	}
}

// TestSLinSessionCancellation cancels mid-stream.
func TestSLinSessionCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s, err := NewSession(ctx, adt.Consensus{}, ConsensusRInit{}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	tr := slinTestTrace()
	if err := s.Feed(tr[0]); err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := s.Feed(tr[1]); !errors.Is(err, context.Canceled) {
		t.Fatalf("Feed after cancel = %v, want context.Canceled", err)
	}
	if v := s.Verdict(); v != check.Unknown {
		t.Fatalf("verdict = %v, want Unknown", v)
	}
}

// TestSLinSessionRejectsOutOfSig mirrors the one-shot signature
// validation: actions outside sig(m,n) are terminal errors.
func TestSLinSessionRejectsOutOfSig(t *testing.T) {
	s, err := NewSession(context.Background(), adt.Consensus{}, ConsensusRInit{}, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(trace.Invoke("c1", 1, adt.ProposeInput("a"))); err == nil {
		t.Fatal("phase-1 invocation accepted by a (2,3) session")
	}
	if _, err := s.Result(); err == nil {
		t.Fatal("error not sticky")
	}
}

// TestSLinSessionInvalidRange mirrors the one-shot phase validation.
func TestSLinSessionInvalidRange(t *testing.T) {
	if _, err := NewSession(context.Background(), adt.Consensus{}, ConsensusRInit{}, 2, 2); err == nil {
		t.Fatal("invalid phase range accepted")
	}
}

// TestSLinSessionExhaustionSaysWhy: budget errors wrap ErrBudget with
// where the search gave up — the feed (or the verdict after
// it), the interpretation combinations, the configurations, the open
// operations and the nodes spent there — and one-shot Check, being the
// same session, carries the same text.
func TestSLinSessionExhaustionSaysWhy(t *testing.T) {
	ctx := context.Background()
	// Four concurrent proposals of one value, answered: each response may
	// linearize the others before itself, so frontiers grow wide.
	var tr trace.Trace
	for i := 0; i < 4; i++ {
		c := trace.ClientID(fmt.Sprintf("p%d", i))
		tr = append(tr, trace.Invoke(c, 1, adt.Tag(p("a"), string(c))))
	}
	for i := 0; i < 4; i++ {
		c := trace.ClientID(fmt.Sprintf("p%d", i))
		tr = append(tr, trace.Response(c, 1, adt.Tag(p("a"), string(c)), d("a")))
	}
	budget := check.WithBudget(10)
	_, oneErr := Check(ctx, adt.Consensus{}, UniversalRInit{}, 1, 2, tr, budget)
	on, err := NewSession(ctx, adt.Consensus{}, UniversalRInit{}, 1, 2, budget)
	if err != nil {
		t.Fatal(err)
	}
	onErr := on.FeedAll(tr)
	if onErr == nil {
		_, onErr = on.Result()
	}
	for _, err := range []error{oneErr, onErr} {
		if !errors.Is(err, ErrBudget) {
			t.Fatalf("got %v, want %v", err, ErrBudget)
		}
		for _, part := range []string{"(feed ", " 1 combinations, ", " configurations, ", " open operations, ", " nodes)"} {
			if !strings.Contains(err.Error(), part) {
				t.Fatalf("%q does not say %q", err, part)
			}
		}
	}
	if oneErr.Error() != onErr.Error() {
		t.Fatalf("one-shot says %q, the session %q", oneErr, onErr)
	}
	t.Log(oneErr)

	// A budget every feed fits but the literal abort discharge, which has
	// an allowance of its own, does not: five open proposals, the first
	// client aborting with its own value.
	var abort trace.Trace
	for i := 0; i < 5; i++ {
		c := trace.ClientID(fmt.Sprintf("q%d", i))
		abort = append(abort, trace.Invoke(c, 1, adt.Tag(p(string(rune('a'+i))), string(c))))
	}
	abort = append(abort, trace.Switch("q0", 2, adt.Tag(p("a"), "q0"), "a"))
	s, err := NewSession(ctx, adt.Consensus{}, ConsensusRInit{}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0
	for _, a := range abort {
		fed := s.Nodes()
		if err := s.Feed(a); err != nil {
			t.Fatal(err)
		}
		peak = max(peak, s.Nodes()-fed)
	}
	fed := s.Nodes()
	if r, err := s.Result(); err != nil || !r.OK || s.Nodes()-fed <= peak {
		t.Fatalf("discharge spent %d nodes (%v, %v), feeds at most %d: the fixture needs a discharge dearer than every feed",
			s.Nodes()-fed, r.OK, err, peak)
	}
	_, err = Check(ctx, adt.Consensus{}, ConsensusRInit{}, 1, 2, abort, check.WithBudget(peak))
	if !errors.Is(err, ErrBudget) || !strings.Contains(err.Error(), fmt.Sprintf("(verdict after feed %d: ", len(abort)-1)) {
		t.Fatalf("verdict-time exhaustion says %v", err)
	}
}

// TestDischargeRequiresValidAbortInput pins the abort's own Validity
// (Definition 28) in discharge: an abort history is only found for an
// obligation whose pending input is valid at the abort's index. Every
// well-formed trace satisfies it by construction — the aborting client
// invoked or switched in with that input — so it is checked on the
// engine directly.
func TestDischargeRequiresValidAbortInput(t *testing.T) {
	s, err := NewSession(context.Background(), adt.Consensus{}, ConsensusRInit{}, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Feed(trace.Invoke("c1", 1, p("a"))); err != nil {
		t.Fatal(err)
	}
	cb := s.combos[0]
	for _, c := range []struct {
		in   trace.Value
		want bool
	}{{p("a"), true}, {p("b"), false}} {
		ob := abortOb{sym: cb.in.Sym(c.in), value: "a", rem: cb.eng.Pool.AppendDiff(nil, nil), idx: 1}
		_, ok, err := s.discharge(cb, 0, &ob)
		if err != nil || ok != c.want {
			t.Fatalf("abort of %s with only p:a invoked: discharged %v (%v), want %v", c.in, ok, err, c.want)
		}
	}
}

// TestCompactionKeepsUnclaimedEntries (named for the chain compaction
// decision 31 deleted): a proposal linearized first but answered only
// after 40 sequential decisions of its value keeps its entry unclaimed
// while everything behind it is claimed, a long chain around one open
// entry. Check, an online session and the reference accept the trace,
// and all refuse it once the late answer contradicts the decision.
func TestCompactionKeepsUnclaimedEntries(t *testing.T) {
	hold := adt.Tag(p("a"), "h")
	tr := trace.Trace{trace.Invoke("h", 1, hold)}
	for i := 0; i < 40; i++ {
		c := trace.ClientID(fmt.Sprintf("s%d", i))
		in := adt.Tag(p(fmt.Sprintf("x%d", i)), string(c))
		tr = append(tr, trace.Invoke(c, 1, in), trace.Response(c, 1, in, d("a")))
	}
	late := trace.Response("h", 1, hold, d("a"))
	for _, c := range []struct {
		out  trace.Value
		want bool
	}{{d("a"), true}, {d("b"), false}} {
		late.Output = c.out
		full := append(tr.Clone(), late)
		if r := mustCheck(t, ConsensusRInit{}, 1, 2, full); r.OK != c.want {
			t.Fatalf("late answer %s: Check %v, want %v", c.out, r.OK, c.want)
		}
		ref, err := CheckReference(adt.Consensus{}, ConsensusRInit{}, 1, 2, full)
		if err != nil || ref.OK != c.want {
			t.Fatalf("late answer %s: reference %v (%v), want %v", c.out, ref.OK, err, c.want)
		}
	}
}

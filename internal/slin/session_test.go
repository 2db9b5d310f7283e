package slin

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

// TestSLinSessionFeedBudget pins the per-feed budget semantics for the
// SLin engine (check.WithFeedBudget): a long sequential phase-1 stream
// of cheap increments survives a budget the same stream exhausts
// cumulatively, and exhaustion within one Feed stays terminal.
func TestSLinSessionFeedBudget(t *testing.T) {
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
	cum, err := NewSession(context.Background(), adt.Consensus{}, ConsensusRInit{}, 1, 2,
		check.WithBudget(budget))
	if err != nil {
		t.Fatal(err)
	}
	if ferr := feed(cum, 64); !errors.Is(ferr, ErrBudget) {
		t.Fatalf("cumulative budget %d survived the stream: %v", budget, ferr)
	}
	per, err := NewSession(context.Background(), adt.Consensus{}, ConsensusRInit{}, 1, 2,
		check.WithBudget(budget), check.WithFeedBudget(true))
	if err != nil {
		t.Fatal(err)
	}
	if ferr := feed(per, 64); ferr != nil {
		t.Fatalf("per-feed budget %d exhausted on cheap increments: %v", budget, ferr)
	}
	if r, rerr := per.Result(); rerr != nil || !r.OK {
		t.Fatalf("per-feed session result = %+v, %v", r, rerr)
	}
	// Exhaustion within a single Feed is still terminal and sticky.
	wide, err := NewSession(context.Background(), adt.Consensus{}, ConsensusRInit{}, 1, 2,
		check.WithBudget(1), check.WithFeedBudget(true))
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
		t.Fatalf("expensive feed under per-feed budget = %v, want ErrBudget", ferr)
	}
	if v := wide.Verdict(); v != check.Unknown {
		t.Fatalf("verdict = %v, want Unknown", v)
	}
	if serr := wide.Feed(trace.Invoke("q9", 1, adt.Tag(adt.ProposeInput("a"), "q9"))); !errors.Is(serr, ErrBudget) {
		t.Fatalf("per-feed budget error not sticky: %v", serr)
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

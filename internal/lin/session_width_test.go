package lin

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
)

// TestSessionWidthBoundedByOverlap reads the frontier itself on the
// long-pending-operation shapes of diffcheck's overlap tests: k holders
// each keep a tagged has(e) open while one driver runs n add/rm/has
// operations on elements no holder holds, then respond with what they
// saw at their invocation. A configuration is the set's state plus which
// holders it has linearized (to the one output each can have), so after
// every feed the frontier holds at most 2^k configurations with at most
// k entries each, however long the holders stay open — and exactly 2^k
// once the driver has responded with all k still open.
func TestSessionWidthBoundedByOverlap(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	s := NewSession(context.Background(), adt.Set{}, check.WithWitness(false))
	var member [4]bool
	ops := 0
	tag := func(in trace.Value) trace.Value {
		ops++
		return adt.Tag(in, strconv.Itoa(ops))
	}
	elem := func(e int) trace.Value { return "e" + strconv.Itoa(e) }
	feed := func(a trace.Action, k int) {
		t.Helper()
		if err := s.Feed(a); err != nil {
			t.Fatal(err)
		}
		if w := len(s.frontier); w == 0 || w > 1<<k {
			t.Fatalf("action %d: frontier holds %d configurations with %d operations open across the driver's", s.Len(), w, k)
		}
		for _, c := range s.frontier {
			if len(c.syms) > k+1 || len(c.outs) != len(c.syms) || c.pos != nil || c.chain != nil {
				t.Fatalf("action %d: configuration holds %d entries, %d outputs, chain %v with %d holders open",
					s.Len(), len(c.syms), len(c.outs), c.chain != nil, k)
			}
		}
	}
	for cycle := 0; cycle < 4; cycle++ {
		for _, sh := range []struct{ k, n int }{{1, 4}, {1, 16}, {2, 4}, {1, 32}, {2, 8}, {3, 4}} {
			var held [4]bool
			var holders trace.Trace
			for j := 0; j < sh.k; j++ {
				e := r.Intn(4)
				held[e] = true
				c, in := trace.ClientID("h"+strconv.Itoa(j)), tag(adt.HasInput(elem(e)))
				feed(trace.Invoke(c, 1, in), sh.k)
				holders = append(holders, trace.Response(c, 1, in, adt.BoolOutput(member[e])))
			}
			for j := 0; j < sh.n; j++ {
				e := r.Intn(4)
				for held[e] {
					e = r.Intn(4)
				}
				in, out := tag(adt.AddInput(elem(e))), adt.BoolOutput(!member[e])
				if member[e] {
					in, out = tag(adt.RemoveInput(elem(e))), adt.BoolOutput(true)
				}
				member[e] = !member[e]
				feed(trace.Invoke("d", 1, in), sh.k)
				feed(trace.Response("d", 1, in, out), sh.k)
				if w := len(s.frontier); w != 1<<sh.k {
					t.Fatalf("shape %v: %d configurations after driver operation %d, want %d", sh, w, j, 1<<sh.k)
				}
			}
			for j, a := range holders {
				feed(a, sh.k-j-1)
			}
		}
	}
}

// TestSessionExhaustionSaysWhy: a session that gives up wraps the
// sentinel with the feed index, the width of the frontier it was
// expanding, the operations open during that feed and the nodes the feed
// spent — and stays matchable with errors.Is.
func TestSessionExhaustionSaysWhy(t *testing.T) {
	ctx := context.Background()
	in := adt.ProposeInput("a")

	// Two open proposals of one value: the response's expansion spends a
	// node on the one configuration and one linearizing the other
	// proposal first, against a budget of one node per fed action.
	s := NewSession(ctx, adt.Consensus{}, check.WithBudget(1))
	if err := s.FeedAll(trace.Trace{trace.Invoke("a", 1, in), trace.Invoke("b", 1, in)}); err != nil {
		t.Fatal(err)
	}
	err := s.Feed(trace.Response("a", 1, in, adt.DecideOutput("a")))
	const budget = "lin: search budget exhausted (feed 2: 1 configurations, 2 open operations, 2 nodes)"
	if !errors.Is(err, ErrBudget) || err.Error() != budget {
		t.Fatalf("budget exhaustion: %v, want %q wrapping ErrBudget", err, budget)
	}
	if _, rerr := s.Result(); rerr != err {
		t.Fatalf("Result after exhaustion = %v, want the same error", rerr)
	}

	// A fast session that leaves its fragment (a duplicate written value,
	// at feed 3) sticks to the error of the exact replay, explanation
	// included: replayed, feed 2 expands like the proposal above.
	fs := NewSessionFast(ctx, adt.Register{}, check.WithBudget(1))
	err = fs.FeedAll(trace.Trace{
		trace.Invoke("a", 1, adt.WriteInput("x")), trace.Invoke("b", 1, adt.WriteInput("y")),
		trace.Response("a", 1, adt.WriteInput("x"), adt.WriteOutput()), trace.Invoke("c", 1, adt.WriteInput("x")),
	})
	const replay = "lin: search budget exhausted (feed 2: 1 configurations, 2 open operations, 2 nodes)"
	if fs.fast != nil || !errors.Is(err, ErrBudget) || err.Error() != replay {
		t.Fatalf("fallback exhaustion (fast core still on: %v): %v, want %q", fs.fast != nil, err, replay)
	}
}

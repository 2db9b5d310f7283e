package lin

import (
	"context"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
)

// The response lookahead of one-shot Check (DESIGN.md, decision 21)
// prunes; these tests hold it to the online session — the same engine
// without it — on the traces where a wrong rule would over- or
// under-prune. EXPERIMENTS.md lists the mutant each one kills.

// bothModes decides tr one-shot and online, verifies a positive
// witness of either, and returns the two results.
func bothModes(t *testing.T, f adt.Folder, tr trace.Trace) (oneShot, online Result) {
	t.Helper()
	ctx := context.Background()
	oneShot, err := Check(ctx, f, tr, check.WithExact(true))
	if err != nil {
		t.Fatalf("one-shot: %v", err)
	}
	s := NewSession(ctx, f, check.WithExact(true))
	if err := s.FeedAll(tr); err != nil {
		t.Fatalf("online: %v", err)
	}
	if online, err = s.Result(); err != nil {
		t.Fatalf("online: %v", err)
	}
	for name, r := range map[string]Result{"one-shot": oneShot, "online": online} {
		if r.OK {
			if err := VerifyWitness(f, tr, r.Witness); err != nil {
				t.Fatalf("%s witness invalid: %v", name, err)
			}
		}
	}
	return oneShot, online
}

// TestLookaheadBorrowedEntry: in the trace of TestRepeatedEventsDivergence
// c1's read claims an entry that was linearized while only c2's
// identical read was pending. The lookahead counts per symbol, as
// Validity does; counted per pending operation it refutes the trace.
func TestLookaheadBorrowedEntry(t *testing.T) {
	w, rd := adt.WriteInput("x"), adt.ReadInput()
	tr := trace.Trace{
		trace.Invoke("c2", 1, rd),
		trace.Invoke("c1", 1, w),
		trace.Response("c2", 1, rd, adt.ReadOutput(adt.Bottom)),
		trace.Invoke("c2", 1, rd),
		trace.Response("c1", 1, w, adt.WriteOutput()),
		trace.Invoke("c1", 1, rd),
		trace.Response("c1", 1, rd, adt.ReadOutput(adt.Bottom)),
		trace.Invoke("c1", 1, w),
		trace.Response("c2", 1, rd, adt.ReadOutput("x")),
		trace.Response("c1", 1, w, adt.WriteOutput()),
	}
	if one, on := bothModes(t, adt.Register{}, tr); !one.OK || !on.OK {
		t.Fatalf("borrowing trace: one-shot %v, online %v; the new definition accepts it", one.OK, on.OK)
	}
}

// TestLookaheadNeverRespondingWrite: a completed read returns the value
// of a write that never responds. No later response claims the write's
// entry, and none has to — operations of its symbol stay open at the end
// of the trace, which exempts the symbol. Without the write's invocation
// nothing explains the read.
func TestLookaheadNeverRespondingWrite(t *testing.T) {
	w, rd := adt.WriteInput("x"), adt.ReadInput()
	tr := trace.Trace{
		trace.Invoke("c1", 1, w),
		trace.Invoke("c2", 1, rd),
		trace.Response("c2", 1, rd, adt.ReadOutput("x")),
	}
	if one, on := bothModes(t, adt.Register{}, tr); !one.OK || !on.OK {
		t.Fatalf("read of a pending write: one-shot %v, online %v; want linearizable", one.OK, on.OK)
	}
	// An equal write that does respond does not revoke the exemption.
	both := append(trace.Trace{
		trace.Invoke("c3", 1, w), trace.Response("c3", 1, w, adt.WriteOutput()),
		trace.Invoke("c3", 1, adt.WriteInput("y")), trace.Response("c3", 1, adt.WriteInput("y"), adt.WriteOutput()),
	}, tr...)
	if one, on := bothModes(t, adt.Register{}, both); !one.OK || !on.OK {
		t.Fatalf("read of a pending write behind a completed equal one: one-shot %v, online %v; want linearizable", one.OK, on.OK)
	}
	if one, on := bothModes(t, adt.Register{}, tr[1:]); one.OK || on.OK {
		t.Fatalf("read of a value never written: one-shot %v, online %v; want not linearizable", one.OK, on.OK)
	}
}

// oneShotCounts is what one-shot Check reports on the untagged traces of
// TestSessionMultiplicityPinned, seeds 1–20: the verdicts of
// sequentialCounts in no more nodes, fewer wherever the lookahead cut an
// extension the online session had to keep.
var oneShotCounts = [20]sessionCounts{{true, 66}, {true, 87}, {false, 33}, {true, 68}, {true, 29}, {true, 89}, {true, 59}, {true, 38}, {true, 24}, {true, 36}, {true, 58}, {false, 61}, {true, 61}, {true, 68}, {false, 71}, {true, 41}, {true, 61}, {true, 77}, {true, 46}, {true, 37}}

// TestLookaheadUntaggedDuplicates pins one-shot Check on untagged traces
// — equal inputs open on several clients, responding with different
// outputs, so the (symbol, output) counts the lookahead compares exceed
// one — to the online verdicts and to exact node counts: a rule that
// prunes less (the response's own entry still counted while it expands)
// shows here and nowhere in a verdict.
func TestLookaheadUntaggedDuplicates(t *testing.T) {
	var got [20]sessionCounts
	saved := 0
	for seed := int64(1); seed <= 20; seed++ {
		f, tr := untaggedTrace(seed)
		one, err := Check(context.Background(), f, tr, check.WithWitness(false), check.WithExact(true))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		got[seed-1] = sessionCounts{one.OK, one.Nodes}
		online := sequentialCounts[seed-1]
		if one.OK != online.ok || one.Nodes > online.nodes {
			t.Errorf("seed %d: one-shot %+v, online %+v: the lookahead may only prune", seed, got[seed-1], online)
		}
		saved += online.nodes - one.Nodes
	}
	if got != oneShotCounts {
		t.Errorf("one-shot counts %+v, want %+v", got, oneShotCounts)
	}
	if saved == 0 {
		t.Error("the lookahead pruned nothing on 20 untagged traces")
	}
}

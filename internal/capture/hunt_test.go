package capture

import (
	"context"
	"strings"
	"testing"
	"time"

	speclin "repro"
)

// huntOps scales the stress size down under -short.
func huntOps(t *testing.T, full int) int {
	if testing.Short() {
		return full / 4
	}
	return full
}

// huntCtx bounds one hunt test at a minute. A hunt takes well under a
// second; past the deadline the sessions stick to the context's error
// and the report's reason says so, where an unbounded search would run
// into go test's own timeout and say nothing.
func huntCtx(t *testing.T) context.Context {
	ctx, cancel := context.WithTimeout(t.Context(), time.Minute)
	t.Cleanup(cancel)
	return ctx
}

// TestHuntCleanStructures: every unmutated reference structure checks
// Linearizable live, with the queue recording zero empty dequeues.
func TestHuntCleanStructures(t *testing.T) {
	for _, structure := range Structures {
		t.Run(structure, func(t *testing.T) {
			rep, err := Run(huntCtx(t), Config{
				Structure:  structure,
				Goroutines: 8,
				Ops:        huntOps(t, 400),
				Keys:       8,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Live.Verdict != speclin.Linearizable {
				t.Fatalf("clean %s: verdict %v, reason %q", structure, rep.Live.Verdict, rep.Live.Reason)
			}
			if rep.EmptyDeqs != 0 {
				t.Errorf("clean %s: %d empty dequeues, want 0", structure, rep.EmptyDeqs)
			}
			if rep.Actions == 0 {
				t.Errorf("clean %s: no actions captured", structure)
			}
		})
	}
}

// TestHuntMutantsCaught: every seeded-bug mutant is flagged
// NotLinearizable. Detection is probabilistic per run (the bug must
// fire and land in the captured interleaving), so each mutant gets a
// few rounds with distinct seeds.
func TestHuntMutantsCaught(t *testing.T) {
	const rounds = 10
	for _, structure := range Structures {
		mutant := Mutants[structure]
		t.Run(structure+"/"+mutant, func(t *testing.T) {
			ctx := huntCtx(t)
			for seed := int64(1); seed <= rounds; seed++ {
				rep, err := Run(ctx, Config{
					Structure:  structure,
					Mutant:     mutant,
					Goroutines: 8,
					Ops:        huntOps(t, 400),
					Keys:       4,
					Seed:       seed,
				})
				if err != nil {
					t.Fatal(err)
				}
				if rep.Live.Verdict == speclin.NotLinearizable {
					t.Logf("%s/%s caught in round %d: %s", structure, mutant, seed, rep.Live.Reason)
					return
				}
				if rep.Live.Verdict == speclin.Unknown {
					t.Fatalf("%s/%s round %d: verdict unknown, reason %q", structure, mutant, seed, rep.Live.Reason)
				}
			}
			t.Fatalf("%s/%s: not caught in %d rounds", structure, mutant, rounds)
		})
	}
}

// TestHuntClassical: the optional post-run ClassicalLin pass agrees
// with the live verdict on a clean run (captured inputs are unique by
// construction, so Theorem 1 grounds the classical verdicts).
func TestHuntClassical(t *testing.T) {
	rep, err := Run(t.Context(), Config{
		Structure:  StructMap,
		Goroutines: 4,
		Ops:        huntOps(t, 200),
		Keys:       4,
		Classical:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Live.Verdict != speclin.Linearizable {
		t.Fatalf("live verdict %v: %s", rep.Live.Verdict, rep.Live.Reason)
	}
	if rep.Classical == nil {
		t.Fatal("classical pass not run")
	}
	if rep.Classical.Verdict != speclin.Linearizable {
		t.Fatalf("classical verdict %v: %s", rep.Classical.Verdict, rep.Classical.Reason)
	}
}

// TestHuntCheckWallWithinRunWall: the live report's wall is time spent
// checking — the drain's batches — so it lies
// inside the hunt's own wall, however many keys the drainer feeds (it
// once summed every session's lifetime: sixteen keys, sixteen hunts).
func TestHuntCheckWallWithinRunWall(t *testing.T) {
	for _, structure := range Structures {
		rep, err := Run(huntCtx(t), Config{Structure: structure, Goroutines: 4, Ops: huntOps(t, 2000), Keys: 16})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Live.Verdict != speclin.Linearizable {
			t.Fatalf("%s: verdict %v: %s", structure, rep.Live.Verdict, rep.Live.Reason)
		}
		if rep.Live.Wall <= 0 || rep.Live.Wall > rep.Wall {
			t.Fatalf("%s: checking took %v of a %v hunt over %d keys", structure, rep.Live.Wall, rep.Wall, rep.Live.Keys)
		}
	}
}

// TestHuntDuration: a wall-clock-bounded run terminates and checks clean.
func TestHuntDuration(t *testing.T) {
	rep, err := Run(t.Context(), Config{
		Structure:  StructMutex,
		Goroutines: 4,
		Duration:   20e6, // 20ms
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Live.Verdict != speclin.Linearizable {
		t.Fatalf("verdict %v: %s", rep.Live.Verdict, rep.Live.Reason)
	}
	if rep.Actions == 0 {
		t.Fatal("no actions captured in 20ms")
	}
}

// TestHuntConfigErrors: unknown structures and mismatched mutants are
// configuration errors, not verdicts.
func TestHuntConfigErrors(t *testing.T) {
	if _, err := Run(t.Context(), Config{Structure: "deque"}); err == nil {
		t.Error("unknown structure accepted")
	}
	if _, err := Run(t.Context(), Config{Structure: StructMap, Mutant: MutantDroppedRetry}); err == nil {
		t.Error("mismatched mutant accepted")
	}
	if _, err := newStructure(StructQueue, "nope", false); err == nil {
		t.Error("unknown queue mutant accepted")
	}
}

// TestOverhead: the overhead measurement produces plausible numbers.
func TestOverhead(t *testing.T) {
	o, err := Overhead(Config{Structure: StructMap, Goroutines: 4, Ops: huntOps(t, 400), Keys: 8})
	if err != nil {
		t.Fatal(err)
	}
	if o.RawOps != o.CapturedOps || o.RawOps == 0 {
		t.Fatalf("op counts diverge: raw %d captured %d", o.RawOps, o.CapturedOps)
	}
	if o.RawNsPerOp() <= 0 || o.CapturedNsPerOp() <= 0 || o.ThroughputRatio() <= 0 {
		t.Fatalf("implausible overhead: %+v", o)
	}
}

// TestReportString smoke-tests the CLI rendering.
func TestReportString(t *testing.T) {
	rep, err := Run(t.Context(), Config{Structure: StructMutex, Goroutines: 4, Ops: 50})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	if !strings.Contains(s, "mutex") || !strings.Contains(s, "clean") {
		t.Fatalf("rendering missing fields: %q", s)
	}
}

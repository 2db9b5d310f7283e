package diffcheck

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
	"repro/internal/workload"
)

// widen reshapes a random trace the way the capture harness's merge
// does at equal-timestamp ties: invocations sort before responses, so
// adjacent cross-client (Res, Inv) pairs flip into (Inv, Res). Flipping
// only widens the flipped operation's interval — exactly the
// under-approximation the recorder commits to — so a linearizable trace
// stays linearizable and the transform is safe to apply to corrupted
// traces too. Several randomized passes produce the characteristic
// capture bursts: runs of invocations, then runs of responses, with
// responses reordered relative to their invocation order.
func widen(r *rand.Rand, t trace.Trace) trace.Trace {
	out := append(trace.Trace(nil), t...)
	for pass := 0; pass < 3; pass++ {
		for i := 0; i+1 < len(out); i++ {
			if out[i].Kind == trace.Res && out[i+1].Kind == trace.Inv &&
				out[i].Client != out[i+1].Client && r.Intn(2) == 0 {
				out[i], out[i+1] = out[i+1], out[i]
			}
		}
	}
	return out
}

// TestSessionCaptureShapes is the satellite property test for Session
// Feed under capture-shaped inputs: wide overlapping intervals (many
// clients), equal-timestamp tie bursts (widen), and response
// reordering, on clean and corrupted traces. Fast-path folders run the
// full fast-vs-exact harness (one-shot, per-prefix sessions,
// witnesses); the set — no fast path — runs the per-prefix
// session-vs-one-shot harness on the exact engines.
func TestSessionCaptureShapes(t *testing.T) {
	ctx := context.Background()
	fastFolders := []struct {
		name   string
		f      adt.Folder
		inputs []trace.Value
	}{
		{"register", adt.Register{}, []trace.Value{
			adt.WriteInput("a"), adt.WriteInput("b"), adt.WriteInput("c"), adt.ReadInput()}},
		{"mutex", adt.Mutex{}, []trace.Value{
			adt.LockInput(), adt.LockInput(), adt.UnlockInput()}},
		{"stack", adt.Stack{}, []trace.Value{
			adt.PushInput("a"), adt.PushInput("b"), adt.PopInput()}},
		{"queue", adt.Queue{}, []trace.Value{
			adt.EnqInput("a"), adt.EnqInput("b"), adt.DeqInput()}},
	}
	for _, fd := range fastFolders {
		fd := fd
		t.Run(fd.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(1701))
			for iter := 0; iter < 60; iter++ {
				tr := workload.Random(fd.f, r, workload.TraceOpts{
					// Up to 4 overlapping clients: wide enough for capture
					// bursts, small enough for the harness's per-prefix exact
					// engines (the frontier superposes overlap windows, so
					// its cost is exponential in the widened overlap width).
					Clients:     2 + r.Intn(3),
					Ops:         8 + r.Intn(9),
					Inputs:      fd.inputs,
					PendingProb: 0.15,
					CorruptProb: float64(iter%3) * 0.2, // 0, .2, .4
					UniqueTags:  true,
				})
				tr = widen(r, tr)
				if err := Fastpath(ctx, fd.f, tr, check.WithBudget(fastBudget)); err != nil {
					t.Fatalf("iter %d: %v", iter, err)
				}
			}
		})
	}

	t.Run("set", func(t *testing.T) {
		r := rand.New(rand.NewSource(1702))
		inputs := []trace.Value{
			adt.AddInput("x"), adt.RemoveInput("x"), adt.HasInput("x")}
		for iter := 0; iter < 40; iter++ {
			tr := workload.Random(adt.Set{}, r, workload.TraceOpts{
				Clients:     2 + r.Intn(5),
				Ops:         6 + r.Intn(15),
				Inputs:      inputs,
				PendingProb: 0.15,
				CorruptProb: float64(iter%3) * 0.2,
				UniqueTags:  true,
			})
			tr = widen(r, tr)
			if err := LinPrefixes(ctx, adt.Set{}, tr, check.WithBudget(fastBudget)); err != nil {
				t.Fatalf("iter %d: %v", iter, err)
			}
		}
	})
}

// TestCompactedFrontierCaptureShapes drives the frontier's compacted
// configurations (DESIGN.md, decisions 17 and 20: no claimed entry is
// stored) through capture-shaped inputs: long sequential-heavy traces,
// where most of a chain is claimed, widened into equal-timestamp tie
// bursts by the capture merge's transform, with overlap from several
// concurrent clients. The whole Lin matrix — one-shot, online with the
// witness chain, online chain-free as the pipelines run it, and the
// oracles, the slin reference at m = 1 among them (skipped where it
// exhausts its budget) — must agree, slin(1,2) must match lin node for
// node, and the online session must agree with the one-shot engine on
// every prefix, assembling and verifying a witness after every action
// without disturbing the live frontier — on clean and corrupted traces
// alike.
func TestCompactedFrontierCaptureShapes(t *testing.T) {
	ctx := context.Background()
	folders := []struct {
		name   string
		f      adt.Folder
		inputs []trace.Value
	}{
		{"register", adt.Register{}, []trace.Value{
			adt.WriteInput("a"), adt.WriteInput("b"), adt.ReadInput()}},
		{"counter", adt.Counter{}, []trace.Value{
			adt.IncInput(), adt.GetInput()}},
		{"set", adt.Set{}, []trace.Value{
			adt.AddInput("x"), adt.RemoveInput("x"), adt.HasInput("x")}},
	}
	for _, fd := range folders {
		fd := fd
		t.Run(fd.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(1703))
			const iters = 30
			exhausted := 0
			for iter := 0; iter < iters; iter++ {
				tr := workload.Random(fd.f, r, workload.TraceOpts{
					// Few clients, moderately long streams: the
					// sequential-heavy regime where most of a chain is
					// claimed, which the compacted configurations never
					// store and a witness chain retains (E18 measures the
					// difference), capped where every prefix's one-shot
					// check still fits the budget.
					Clients:     2 + r.Intn(3),
					Ops:         14 + r.Intn(11),
					Inputs:      fd.inputs,
					PendingProb: 0.1,
					CorruptProb: float64(iter%3) * 0.15, // 0, .15, .3
					UniqueTags:  iter%2 == 0,
				})
				tr = widen(r, tr)
				err := Lin(ctx, fd.f, tr, check.WithBudget(fastBudget))
				if err == nil {
					err = LinPrefixes(ctx, fd.f, tr, check.WithBudget(fastBudget))
				}
				if err == nil {
					continue
				}
				var d *Disagreement
				if errors.As(err, &d) {
					t.Fatalf("iter %d: %v", iter, err)
				}
				// An engine (or oracle) ran out of budget. Skip the
				// iteration but insist the tail stays a tail — an engine
				// regression that exhausts everywhere must not silently
				// void the property.
				exhausted++
			}
			if exhausted > iters/3 {
				t.Fatalf("%d/%d iterations exhausted the budget", exhausted, iters)
			}
		})
	}
}

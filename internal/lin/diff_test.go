package lin_test

// The E8-style equivalence suite of this package (equivalence_test.go)
// cross-checks the new and classical definitions; this file extends it
// with the engine differential harness (DESIGN.md, decision 21): the
// frontier engine one-shot and online must agree with each other and
// with the independent oracles — string-keyed reference, slin at m = 1,
// classical — on the same randomized workloads, with witnesses verified. The
// harness lives in internal/check/diffcheck, so these tests run in the
// external test package.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/check/diffcheck"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestE8StyleEngineMatrix runs the differential engine matrix on the E8
// workload shapes (unique tags, clean/corrupted mix) across four ADTs —
// asserting agreement rather than measuring node counts.
func TestE8StyleEngineMatrix(t *testing.T) {
	cases := []struct {
		name   string
		f      adt.Folder
		inputs []trace.Value
	}{
		{"consensus", adt.Consensus{}, []trace.Value{
			adt.ProposeInput("a"), adt.ProposeInput("b"), adt.ProposeInput("c"),
		}},
		{"register", adt.Register{}, []trace.Value{
			adt.WriteInput("x"), adt.WriteInput("y"), adt.ReadInput(),
		}},
		{"counter", adt.Counter{}, []trace.Value{adt.IncInput(), adt.GetInput()}},
		{"queue", adt.Queue{}, []trace.Value{
			adt.EnqInput("x"), adt.EnqInput("y"), adt.DeqInput(),
		}},
	}
	iters := 120
	if testing.Short() {
		iters = 30
	}
	ctx := context.Background()
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			for i := 0; i < iters; i++ {
				opts := workload.TraceOpts{
					Clients:     2 + r.Intn(2),
					Ops:         3 + r.Intn(4),
					Inputs:      tc.inputs,
					PendingProb: 0.2,
					UniqueTags:  true,
				}
				if i%2 == 1 {
					opts.CorruptProb = 0.5
				}
				tr := workload.Random(tc.f, r, opts)
				if err := diffcheck.Lin(ctx, tc.f, tr); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestRepeatedEventsEngineMatrix pins the engine matrix on the repeated-
// events regime (no occurrence tags), where the extension branch sets
// carry genuinely identical inputs — the multiplicity > 1 corner of the
// availability handling and of the per-symbol response lookahead.
func TestRepeatedEventsEngineMatrix(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(77))
	inputs := []trace.Value{adt.IncInput(), adt.GetInput()}
	iters := 100
	if testing.Short() {
		iters = 25
	}
	for i := 0; i < iters; i++ {
		opts := workload.TraceOpts{Clients: 3, Ops: 4 + r.Intn(3), Inputs: inputs}
		if i%2 == 1 {
			opts.CorruptProb = 0.4
		}
		tr := workload.Random(adt.Counter{}, r, opts)
		if err := diffcheck.Lin(ctx, adt.Counter{}, tr); err != nil {
			t.Fatal(err)
		}
	}
}

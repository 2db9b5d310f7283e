package lin

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
	"repro/internal/workload"
)

// TestE8DefinitionEquivalence is experiment E8: the paper's new definition
// of linearizability (package-level Check) agrees with the classical
// definition (CheckClassical) on randomly generated traces with unique
// inputs — Theorem 1/4. Traces are drawn both from a linearizable-by-
// construction generator and from a corrupting generator, across four
// ADTs. See TestRepeatedEventsDivergence for the repeated-inputs caveat.
func TestE8DefinitionEquivalence(t *testing.T) {
	type tcase struct {
		name   string
		f      adt.Folder
		inputs []trace.Value
	}
	cases := []tcase{
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
	iters := 400
	if testing.Short() {
		iters = 80
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(42))
			agreeLin, agreeNon := 0, 0
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
				r1, err := Check(context.Background(), tc.f, tr, check.WithExact(true))
				if err != nil {
					t.Fatalf("Check: %v on %v", err, tr)
				}
				r2, err := CheckClassical(context.Background(), tc.f, tr)
				if err != nil {
					t.Fatalf("CheckClassical: %v on %v", err, tr)
				}
				if r1.OK != r2.OK {
					t.Fatalf("definitions disagree (Theorem 1 violated): new=%v classical=%v on %v",
						r1.OK, r2.OK, tr)
				}
				if r1.OK {
					agreeLin++
					if err := VerifyWitness(tc.f, tr, r1.Witness); err != nil {
						t.Fatalf("invalid witness: %v on %v", err, tr)
					}
					if err := VerifySequential(tc.f, tr, r2.Sequential); err != nil {
						t.Fatalf("invalid sequential witness: %v on %v", err, tr)
					}
				} else {
					agreeNon++
				}
				// Uncorrupted traces must always be linearizable.
				if opts.CorruptProb == 0 && !r1.OK {
					t.Fatalf("linearizable-by-construction trace rejected: %v", tr)
				}
			}
			if agreeLin == 0 || agreeNon == 0 {
				t.Fatalf("generator did not exercise both verdicts: lin=%d non=%d", agreeLin, agreeNon)
			}
		})
	}
}

// TestRepeatedEventsDivergence documents a finding of this reproduction:
// with repeated events (identical inputs from different invocations), the
// paper's new definition is strictly WEAKER than the classical one, so
// Theorem 1/4 fails as stated. The new definition's Validity requires a
// commit history to end with the response's input but is blind to which
// occurrence of the input it ends with; a client's operation can therefore
// "borrow" another client's identical invocation and commit before an
// operation that really-time-precedes it.
//
// Concretely: c1 completes write(x) and then reads ⊥ — classically
// impossible — but the new definition accepts the trace via the chain
//
//	[r], [r r], [r r w], [r r w r], [r r w r w]
//
// assigning c1's read the length-2 prefix whose final "r" is justified by
// c2's second read invocation.
func TestRepeatedEventsDivergence(t *testing.T) {
	w, rd := adt.WriteInput("x"), adt.ReadInput()
	tr := trace.Trace{
		trace.Invoke("c2", 1, rd),
		trace.Invoke("c1", 1, w),
		trace.Response("c2", 1, rd, adt.ReadOutput(adt.Bottom)),
		trace.Invoke("c2", 1, rd),
		trace.Response("c1", 1, w, adt.WriteOutput()),
		trace.Invoke("c1", 1, rd),
		trace.Response("c1", 1, rd, adt.ReadOutput(adt.Bottom)), // reads ⊥ after own completed write
		trace.Invoke("c1", 1, w),
		trace.Response("c2", 1, rd, adt.ReadOutput("x")),
		trace.Response("c1", 1, w, adt.WriteOutput()),
	}
	rNew, err := Check(context.Background(), adt.Register{}, tr, check.WithExact(true))
	if err != nil {
		t.Fatal(err)
	}
	rCls, err := CheckClassical(context.Background(), adt.Register{}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !rNew.OK {
		t.Fatal("the new definition accepts this trace (per its literal statement)")
	}
	if err := VerifyWitness(adt.Register{}, tr, rNew.Witness); err != nil {
		t.Fatalf("the accepting witness must satisfy Definitions 6–12: %v", err)
	}
	if rCls.OK {
		t.Fatal("the classical definition rejects this trace (read after own completed write)")
	}
}

// One direction of Theorem 1 does survive repeated events: classically
// linearizable traces satisfy the new definition (the Appendix B proof of
// that direction does not rely on occurrence identity).
func TestClassicalImpliesNewWithRepeats(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	inputs := []trace.Value{adt.IncInput(), adt.GetInput()}
	iters := 300
	if testing.Short() {
		iters = 60
	}
	for i := 0; i < iters; i++ {
		opts := workload.TraceOpts{Clients: 3, Ops: 4 + r.Intn(3), Inputs: inputs}
		if i%2 == 1 {
			opts.CorruptProb = 0.4
		}
		tr := workload.Random(adt.Counter{}, r, opts)
		rCls, err := CheckClassical(context.Background(), adt.Counter{}, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !rCls.OK {
			continue
		}
		rNew, err := Check(context.Background(), adt.Counter{}, tr)
		if err != nil {
			t.Fatal(err)
		}
		if !rNew.OK {
			t.Fatalf("classical ⇒ new violated on %v", tr)
		}
	}
}

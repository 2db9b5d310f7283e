package lin

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Appendix B's constructions, executable: the sequential witness of the
// classical definition is verified against Definitions 41–45 directly,
// and Lemma 2's construction converts it into a witness for the new
// definition. The tests below exercise the construction on random
// traces, mechanically validating the classical ⇒ new direction of
// Theorem 1 (the direction that survives repeated events).

// VerifySequential checks a classical sequential witness against the
// definitions of Appendix A:
//
//   - it is a permutation of all operations of the (completed) trace
//     (Definition 41, with Definition 40's completion of pending ops);
//   - outputs of operations completed in t agree with the ADT along the
//     order (Definition 38);
//   - it preserves the order of non-overlapping operations: if one
//     operation's response precedes another's invocation in t, it comes
//     first (Definition 44).
func VerifySequential(f adt.Folder, t trace.Trace, seq Linearization) error {
	if !t.WellFormed() {
		return fmt.Errorf("lin: sequential witness for ill-formed trace")
	}
	ops := collectOps(t)
	if len(seq) != len(ops) {
		return fmt.Errorf("lin: witness has %d operations, trace has %d", len(seq), len(ops))
	}
	seen := make([]bool, len(ops))
	st := f.Empty()
	pos := make([]int, len(ops)) // op index -> position in seq
	for k, j := range seq {
		if j < 0 || j >= len(ops) || seen[j] {
			return fmt.Errorf("lin: witness is not a permutation")
		}
		seen[j] = true
		pos[j] = k
		op := ops[j]
		if op.res >= 0 {
			if got := f.Out(st, op.input); got != op.output {
				return fmt.Errorf("lin: op %d output %q, ADT gives %q at its position", j, op.output, got)
			}
		}
		st = f.Step(st, op.input)
	}
	for a, opA := range ops {
		for b, opB := range ops {
			if opA.res >= 0 && opA.res < opB.inv && pos[a] > pos[b] {
				return fmt.Errorf("lin: real-time order violated: op %d completed before op %d began", a, b)
			}
		}
	}
	return nil
}

// WitnessFromSequential performs Lemma 2's construction: given a
// sequential witness t_seq (as an operation order), build the
// linearization function g with g(i) = inputs(t_seq, σ(i)) for every
// response index i — the history of inputs up to and including the
// operation's position in the sequential order.
//
// By Lemma 2, g is a linearization function for t whenever the sequential
// witness is valid, so VerifyWitness must accept the result; the tests
// check exactly that.
func WitnessFromSequential(t trace.Trace, seq Linearization) (Witness, error) {
	ops := collectOps(t)
	if len(seq) != len(ops) {
		return nil, fmt.Errorf("lin: witness has %d operations, trace has %d", len(seq), len(ops))
	}
	// Prefix history of the sequential trace at each position.
	prefix := make([]trace.History, len(seq)+1)
	prefix[0] = trace.History{}
	for k, j := range seq {
		prefix[k+1] = prefix[k].Append(ops[j].input)
	}
	pos := make([]int, len(ops))
	for k, j := range seq {
		pos[j] = k
	}
	w := Witness{}
	for j, op := range ops {
		if op.res >= 0 {
			w[op.res] = prefix[pos[j]+1]
		}
	}
	return w, nil
}

// Lemma 2's construction, mechanically: for random classically
// linearizable traces, the sequential witness verifies against the
// Appendix A definitions, and the linearization function built from it
// verifies against the new definition (Definitions 6–12). Repeated inputs
// (no occurrence tags) are included deliberately — this direction of
// Theorem 1 survives them.
func TestLemma2Construction(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	cases := []struct {
		name   string
		f      adt.Folder
		inputs []trace.Value
		unique bool
	}{
		{"consensus-unique", adt.Consensus{}, []trace.Value{adt.ProposeInput("a"), adt.ProposeInput("b")}, true},
		{"counter-repeated", adt.Counter{}, []trace.Value{adt.IncInput(), adt.GetInput()}, false},
		{"register-repeated", adt.Register{}, []trace.Value{adt.WriteInput("x"), adt.ReadInput()}, false},
		{"queue-unique", adt.Queue{}, []trace.Value{adt.EnqInput("x"), adt.DeqInput()}, true},
	}
	iters := 200
	if testing.Short() {
		iters = 50
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			verified := 0
			for i := 0; i < iters; i++ {
				opts := workload.TraceOpts{
					Clients: 3, Ops: 4 + r.Intn(3), Inputs: tc.inputs,
					PendingProb: 0.2, UniqueTags: tc.unique,
				}
				if i%3 == 2 {
					opts.CorruptProb = 0.5
				}
				tr := workload.Random(tc.f, r, opts)
				res, err := CheckClassical(context.Background(), tc.f, tr)
				if err != nil {
					t.Fatal(err)
				}
				if !res.OK {
					continue
				}
				// The sequential witness satisfies Definitions 41–45.
				if err := VerifySequential(tc.f, tr, res.Sequential); err != nil {
					t.Fatalf("invalid sequential witness: %v\ntrace: %v\nseq: %v", err, tr, res.Sequential)
				}
				// Lemma 2: it converts to a valid new-definition witness.
				w, err := WitnessFromSequential(tr, res.Sequential)
				if err != nil {
					t.Fatal(err)
				}
				if err := VerifyWitness(tc.f, tr, w); err != nil {
					t.Fatalf("Lemma 2 construction failed: %v\ntrace: %v\nseq: %v\nwitness: %v",
						err, tr, res.Sequential, w)
				}
				verified++
			}
			if verified == 0 {
				t.Fatal("no linearizable traces generated")
			}
		})
	}
}

// The sequential verifier rejects broken witnesses.
func TestVerifySequentialRejects(t *testing.T) {
	w, rd := adt.WriteInput("x"), adt.ReadInput()
	tr := trace.Trace{
		trace.Invoke("c1", 1, w),
		trace.Response("c1", 1, w, adt.WriteOutput()),
		trace.Invoke("c2", 1, rd),
		trace.Response("c2", 1, rd, adt.ReadOutput("x")),
	}
	// Correct order: write (op 0) then read (op 1).
	if err := VerifySequential(adt.Register{}, tr, Linearization{0, 1}); err != nil {
		t.Fatalf("valid witness rejected: %v", err)
	}
	// Reversed order violates both real-time order and the read's output.
	if err := VerifySequential(adt.Register{}, tr, Linearization{1, 0}); err == nil {
		t.Fatal("reversed order accepted")
	}
	// Not a permutation.
	if err := VerifySequential(adt.Register{}, tr, Linearization{0, 0}); err == nil {
		t.Fatal("duplicate op accepted")
	}
	if err := VerifySequential(adt.Register{}, tr, Linearization{0}); err == nil {
		t.Fatal("short witness accepted")
	}
}

// Pending operations appear in the sequential witness (completions are
// total, Definition 40) but carry no output constraint.
func TestSequentialWithPendingOps(t *testing.T) {
	tr := trace.Trace{
		trace.Invoke("c1", 1, adt.ProposeInput("a")),
		trace.Invoke("c2", 1, adt.ProposeInput("b")),
		trace.Response("c2", 1, adt.ProposeInput("b"), adt.DecideOutput("a")),
		// c1 stays pending.
	}
	res, err := CheckClassical(context.Background(), adt.Consensus{}, tr)
	if err != nil || !res.OK {
		t.Fatalf("check: %+v %v", res, err)
	}
	if len(res.Sequential) != 2 {
		t.Fatalf("pending op missing from witness: %v", res.Sequential)
	}
	if err := VerifySequential(adt.Consensus{}, tr, res.Sequential); err != nil {
		t.Fatal(err)
	}
	w, err := WitnessFromSequential(tr, res.Sequential)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyWitness(adt.Consensus{}, tr, w); err != nil {
		t.Fatal(err)
	}
}

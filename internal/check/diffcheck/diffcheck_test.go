package diffcheck

// The harness's own tests cover the regimes the wired-in suites
// (internal/lin/diff_test.go, internal/slin/diff_test.go) do NOT run —
// per-prefix session agreement and the m != 1 init-interpretation
// regime — so the engine matrix is not paid for twice per CI job. The
// uniform lin sweep lives in lin's TestE8StyleEngineMatrix /
// TestRepeatedEventsEngineMatrix; the abort-heavy and switch-free SLin
// sweeps live in slin's TestFirstPhaseEngineMatrix /
// TestTheorem2EngineMatrix.

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/adt"
	"repro/internal/slin"
	"repro/internal/trace"
	"repro/internal/workload"
)

// adtCases is the E8 ADT matrix the prefix generator draws from.
var adtCases = []struct {
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

// TestDifferentialLinPrefixes runs the session-vs-one-shot prefix
// agreement on a uniform sample — every trace costs one check per
// prefix.
func TestDifferentialLinPrefixes(t *testing.T) {
	ctx := context.Background()
	iters := 40
	if testing.Short() {
		iters = 12
	}
	for _, tc := range adtCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(2718))
			for i := 0; i < iters; i++ {
				opts := workload.TraceOpts{
					Clients: 2 + r.Intn(2), Ops: 3 + r.Intn(3), Inputs: tc.inputs,
					PendingProb: 0.2, UniqueTags: i%3 != 0,
				}
				if i%2 == 1 {
					opts.CorruptProb = 0.5
				}
				tr := workload.Random(tc.f, r, opts)
				if err := LinPrefixes(ctx, tc.f, tr); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestDifferentialSLinSecondPhase covers the m != 1 regime: init actions
// multiply interpretation combinations and anchor Init-Order baselines.
func TestDifferentialSLinSecondPhase(t *testing.T) {
	ctx := context.Background()
	iters := 80
	if testing.Short() {
		iters = 20
	}
	r := rand.New(rand.NewSource(5151))
	for i := 0; i < iters; i++ {
		opts := workload.PhaseOpts{Clients: 2 + r.Intn(2)}
		if i%3 == 0 {
			opts.ViolateProb = 0.4
		}
		tr := workload.SecondPhase(r, 2, opts)
		if err := SLin(ctx, adt.Consensus{}, slin.ConsensusRInit{}, 2, 3, tr, i%4 < 2); err != nil {
			t.Fatal(err)
		}
	}
}

package lin

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
)

// The operation path (DESIGN.md, decision 37) is held to Feed: a session
// driven by Invoke and Respond, its caller pairing each response with its
// invocation's Op, must equal one Feed drives on every prefix — in
// verdict, result (reason and witness included), nodes and length.

// handleTwins feeds the well-formed tr to a Feed session and an Op session
// of f under opts, comparing them after every action, and reports how
// many Ops were open across the Op session's fallback (and whether it
// fell back, and how many of its actions lay behind a cut when it did).
func handleTwins(t *testing.T, f adt.Folder, tr trace.Trace, opts ...check.Option) (across int, fell bool, cutFed int) {
	t.Helper()
	ctx := context.Background()
	fed, ops := NewSession(ctx, f, opts...), NewSession(ctx, f, opts...)
	open := map[trace.ClientID]Op{}
	for k, a := range tr {
		ferr := fed.Feed(a)
		var oerr error
		wasFast := ops.fast != nil
		cut := ops.cutFed
		switch a.Kind {
		case trace.Inv:
			open[a.Client], oerr = ops.Invoke(a.Client, a.Input)
		case trace.Res:
			oerr = ops.Respond(open[a.Client], a.Output)
			delete(open, a.Client)
		}
		if wasFast && ops.fast == nil {
			fell, cutFed = true, cut
			for c := range open {
				if c != a.Client {
					across++
				}
			}
		}
		if fmt.Sprint(ferr) != fmt.Sprint(oerr) {
			t.Fatalf("action %d: Feed error %v, Op error %v", k, ferr, oerr)
		}
		if fed.Verdict() != ops.Verdict() || fed.Nodes() != ops.Nodes() || fed.Len() != ops.Len() {
			t.Fatalf("action %d: Feed %v in %d nodes over %d, Op %v in %d nodes over %d",
				k, fed.Verdict(), fed.Nodes(), fed.Len(), ops.Verdict(), ops.Nodes(), ops.Len())
		}
		fr, ferr := fed.Result()
		or, oerr := ops.Result()
		if !reflect.DeepEqual(fr, or) || fmt.Sprint(ferr) != fmt.Sprint(oerr) {
			t.Fatalf("action %d: Feed result %+v (%v), Op result %+v (%v)", k, fr, ferr, or, oerr)
		}
		if ferr != nil {
			break
		}
	}
	if fed.open != ops.open || fed.open != len(open) {
		t.Fatalf("%d open operations counted by Feed, %d by Op, %d by the caller", fed.open, ops.open, len(open))
	}
	return across, fell, cutFed
}

// setSim is the set as a cutSim: tagged add, rm and has on three members.
type setSim struct{ foldSim }

func (s *setSim) input(r *rand.Rand, _, n int, _ bool) trace.Value {
	v := trace.Value(strconv.Itoa(r.Intn(3)))
	in := [...]trace.Value{adt.AddInput(v), adt.RemoveInput(v), adt.HasInput(v)}[r.Intn(3)]
	return adt.Tag(in, strconv.Itoa(n))
}

func (s *setSim) noise(r *rand.Rand) trace.Value { return adt.BoolOutput(r.Intn(2) == 0) }

// TestOpsEqualFeed runs every simulated folder's histories — the five
// cores' with their late fragment exits, and the set's on the exact
// engine — witnesses on and off, and in the witness-off arm the long
// histories cut at quiescent points before they fall back. Ops open
// across a fallback are answered after it, on the exact engine.
func TestOpsEqualFeed(t *testing.T) {
	sims := append(cutSims[:len(cutSims):len(cutSims)], struct {
		name string
		f    adt.Folder
		sim  func() cutSim
		wide int
	}{"set", adt.Set{}, func() cutSim { return &setSim{foldOf(adt.Set{})} }, 0})
	across := 0
	for _, sc := range sims {
		t.Run(sc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(40))
			var falls, afterCut int
			for i := 0; i < 16; i++ {
				tr := simHistory(r, sc.sim(), 40+r.Intn(300))
				for _, witness := range []bool{true, false} {
					n, fell, cutFed := handleTwins(t, sc.f, tr, check.WithWitness(witness), check.WithBudget(1<<16))
					across += n
					if fell {
						falls++
					}
					if cutFed > 0 {
						afterCut++
					}
				}
			}
			t.Logf("%d fallbacks, %d after a cut", falls, afterCut)
			if sc.name != "set" && (falls == 0 || afterCut == 0) { // the set has no core
				t.Fatalf("%d fallbacks, %d after a cut: the row misses a case", falls, afterCut)
			}
		})
	}
	if t.Logf("%d Ops open across a fallback", across); across == 0 {
		t.Fatal("no Op was open across a fallback")
	}
}

// TestOpAnsweredAfterFallback: a register read invoked on the core stays
// open while a repeated write leaves the fragment, and is answered on the
// exact engine — accepted with the value written before it, refused with
// one never written.
func TestOpAnsweredAfterFallback(t *testing.T) {
	w := adt.WriteInput("x")
	for _, tc := range []struct {
		out trace.Value
		ok  bool
	}{{adt.ReadOutput("x"), true}, {adt.ReadOutput("y"), false}} {
		s := NewSession(context.Background(), adt.Register{}, check.WithWitness(false))
		read, err := s.Invoke("r", adt.Tag(adt.ReadInput(), "1"))
		if err != nil || read.exact {
			t.Fatalf("read invoked on the core: %+v, %v", read, err)
		}
		for i := 0; i < 2; i++ { // the second write repeats the input: a fragment exit
			op, err := s.Invoke("w", w)
			if err == nil {
				err = s.Respond(op, adt.WriteOutput())
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if s.fast != nil || s.open != 1 {
			t.Fatalf("after the repeated write: fast %v, %d open", s.fast != nil, s.open)
		}
		if err := s.Respond(read, tc.out); err != nil {
			t.Fatal(err)
		}
		if r, _ := s.Result(); r.OK != tc.ok || s.open != 0 {
			t.Fatalf("read answered %q after the fallback: %+v, %d open, want OK %v", tc.out, r, s.open, tc.ok)
		}
	}
}

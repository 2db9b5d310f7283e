package lin

import (
	"context"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
	"repro/internal/workload"
)

// overlapShapes are the (k, n) round shapes of the overlap stream, in the
// order diffcheck's TestOverlapNodeCounts cycles through them; one cycle
// costs overlapCycleNodes search nodes.
var overlapShapes = [][2]int{{1, 4}, {1, 16}, {2, 4}, {1, 32}, {2, 8}, {3, 4}}

const overlapCycleNodes = 533

// overlapStream returns cycles cycles of the overlap stream from seed.
func overlapStream(seed int64, cycles int) trace.Trace {
	g := workload.NewOverlap(rand.New(rand.NewSource(seed)))
	var tr trace.Trace
	for c := 0; c < cycles; c++ {
		for _, sh := range overlapShapes {
			round, _ := g.Round(sh[0], sh[1])
			tr = append(tr, round...)
		}
	}
	return tr
}

func newOverlapSession(f adt.Folder) *Session {
	return NewSession(context.Background(), f, check.WithWitness(false))
}

// TestTransitionMemoSharedSlot: keys that land on one memo slot — found
// by enumerating every set state over six elements against more symbols
// than the memo has slots (every operation on them under 60 tags), so
// that some share a slot with another state under the same symbol and
// some with another symbol from the same state — each get the folder's
// own output, successor state and hash, however their probes interleave.
func TestTransitionMemoSharedSlot(t *testing.T) {
	f := adt.Set{}
	in := trace.NewInterner()
	e := NewFrontier(f, in, &Meter{Ctx: context.Background(), Budget: 1}, nil, false)
	e.memo = new([memoSlots]transition)

	elems := []trace.Value{"e0", "e1", "e2", "e3", "e4", "e5"}
	var syms []trace.Sym
	for tag := 0; tag < 60; tag++ {
		for _, v := range elems {
			for _, op := range []func(trace.Value) trace.Value{adt.AddInput, adt.RemoveInput, adt.HasInput} {
				syms = append(syms, in.Sym(adt.Tag(op(v), strconv.Itoa(tag))))
			}
		}
	}
	type key struct {
		st  adt.State
		sym trace.Sym
	}
	bySlot := map[int][]key{}
	for mask := 0; mask < 1<<len(elems); mask++ {
		var h trace.History
		for i, v := range elems {
			if mask&(1<<i) != 0 {
				h = append(h, adt.AddInput(v))
			}
		}
		st := adt.Fold(f, h)
		for _, sym := range syms {
			slot := memoSlot(trace.HashString(string(st)), sym)
			bySlot[slot] = append(bySlot[slot], key{st, sym})
		}
	}
	// Up to 200 slot-sharing pairs of each kind.
	var sameSym, sameState [][2]key
	for _, keys := range bySlot {
		for i, a := range keys {
			for _, b := range keys[i+1:] {
				switch {
				case a.sym == b.sym && len(sameSym) < 200:
					sameSym = append(sameSym, [2]key{a, b})
				case a.st == b.st && len(sameState) < 200:
					sameState = append(sameState, [2]key{a, b})
				}
			}
		}
	}
	if len(sameSym) == 0 || len(sameState) == 0 {
		t.Fatalf("%d slot-sharing pairs under one symbol, %d from one state: want some of each", len(sameSym), len(sameState))
	}
	probe := func(k key, step bool) {
		t.Helper()
		v := in.Value(k.sym)
		tr := e.transition(k.st, trace.HashString(string(k.st)), k.sym)
		if want := f.Out(k.st, v); tr.out != want {
			t.Fatalf("Out(%q, %q) from the memo = %q, want %q", k.st, v, tr.out, want)
		}
		if !step {
			return
		}
		next, nextH := e.step(tr)
		if want := f.Step(k.st, v); next != want || nextH != trace.HashString(string(want)) {
			t.Fatalf("Step(%q, %q) from the memo = %q, want %q", k.st, v, next, want)
		}
	}
	for _, p := range append(sameSym, sameState...) {
		for _, ab := range [][2]key{p, {p[1], p[0]}} {
			a, b := ab[0], ab[1]
			probe(a, false)
			probe(b, true)
			probe(a, true)
			probe(a, true)
			probe(b, false)
		}
	}
}

// countingFolder counts the calls that reach a folder's Step and Out,
// per (state, input) pair.
type countingFolder struct {
	adt.Folder
	steps, outs map[[2]string]int
}

func (f *countingFolder) Step(s adt.State, in trace.Value) adt.State {
	f.steps[[2]string{string(s), in}]++
	return f.Folder.Step(s, in)
}

func (f *countingFolder) Out(s adt.State, in trace.Value) trace.Value {
	f.outs[[2]string{string(s), in}]++
	return f.Folder.Out(s, in)
}

// TestTransitionMemoAsksOncePerPair feeds one cycle of the overlap stream
// through a session over a call-counting folder. The cycle's distinct
// (state, input) pairs are fewer than the memo's slots, so wherever a
// pair has its slot to itself the folder sees it at most once for Out and
// once for Step, however many search nodes meet it; and the folder is
// asked far less often than nodes are spent.
func TestTransitionMemoAsksOncePerPair(t *testing.T) {
	if memocheckEnabled {
		t.Skip("the memocheck audit asks the folder again at every hit")
	}
	f := &countingFolder{Folder: adt.Set{}, steps: map[[2]string]int{}, outs: map[[2]string]int{}}
	s := newOverlapSession(f)
	if err := s.FeedAll(overlapStream(1, 1)); err != nil {
		t.Fatal(err)
	}
	if s.Verdict() != check.Linearizable || s.Nodes() != overlapCycleNodes {
		t.Fatalf("verdict %v in %d nodes, want linearizable in %d", s.Verdict(), s.Nodes(), overlapCycleNodes)
	}
	if len(f.outs) >= memoSlots {
		t.Fatalf("%d distinct pairs do not fit the %d-slot memo", len(f.outs), memoSlots)
	}
	slotOf := func(p [2]string) int { return memoSlot(trace.HashString(p[0]), s.in.Sym(p[1])) }
	users := map[int]int{}
	for p := range f.outs {
		users[slotOf(p)]++
	}
	alone, calls := 0, 0
	for p, n := range f.outs {
		calls += n + f.steps[p]
		if users[slotOf(p)] > 1 {
			continue
		}
		alone++
		if n > 1 || f.steps[p] > 1 {
			t.Errorf("pair (%q, %q) has its slot to itself yet reached Out %d and Step %d times", p[0], p[1], n, f.steps[p])
		}
	}
	for p := range f.steps {
		if _, ok := f.outs[p]; !ok {
			t.Errorf("pair (%q, %q) reached Step without Out", p[0], p[1])
		}
	}
	if 2*alone < len(f.outs) {
		t.Fatalf("only %d of %d pairs have a slot to themselves", alone, len(f.outs))
	}
	if 2*calls > s.Nodes() {
		t.Fatalf("the folder was called %d times in %d nodes: the memo saves little", calls, s.Nodes())
	}
	t.Logf("%d nodes, %d distinct pairs (%d alone in their slot), %d folder calls", s.Nodes(), len(f.outs), alone, calls)
}

// TestFastSessionAllocatesNoMemo: a register fast-path session that never
// leaves its fragment expands no frontier, so it allocates no memo and
// interns nothing.
func TestFastSessionAllocatesNoMemo(t *testing.T) {
	s := NewSessionFast(context.Background(), adt.Register{}, check.WithWitness(false))
	for i := 0; i < 100; i++ {
		v := "v" + strconv.Itoa(i)
		w, r := adt.WriteInput(v), adt.Tag(adt.ReadInput(), strconv.Itoa(i))
		if err := s.FeedAll(trace.Trace{
			trace.Invoke("w", 1, w), trace.Response("w", 1, w, adt.WriteOutput()),
			trace.Invoke("r", 1, r), trace.Response("r", 1, r, adt.ReadOutput(v)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if s.fast == nil || s.Verdict() != check.Linearizable {
		t.Fatalf("fast core on: %v, verdict %v", s.fast != nil, s.Verdict())
	}
	if s.memo != nil || s.in.Len() != 0 {
		t.Fatalf("a fast session allocated a memo (%v) or interned %d inputs", s.memo != nil, s.in.Len())
	}
}

// BenchmarkFrontierOverlap measures the frontier engine alone on the
// overlap stream — 30 cycles, one stream-overlap repetition of bench/ —
// fed to a witness-off session: ns/node is the engine's cost per search
// node, allocs/op its allocations per stream.
func BenchmarkFrontierOverlap(b *testing.B) {
	tr := overlapStream(1, 30)
	b.ReportAllocs()
	nodes := 0
	for b.Loop() {
		s := newOverlapSession(adt.Set{})
		if err := s.FeedAll(tr); err != nil {
			b.Fatal(err)
		}
		nodes += s.Nodes()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(nodes), "ns/node")
}

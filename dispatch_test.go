package speclin_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	speclin "repro"
	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/lin"
	"repro/internal/slin"
	"repro/internal/trace"
	"repro/internal/workload"
)

// coreHistory is a small linearizable history, operations overlapping,
// inside the fragment of the folder's fast-path core (DESIGN.md,
// decision 15), and exact pins the nodes the exact engine spends on it
// (DESIGN.md, decision 36): one-shot, with the response lookahead, and
// online, where lin's session and slin's at (1,2) agree node for node.
type coreHistory struct {
	name         string
	f            adt.Folder
	tr           trace.Trace
	exactOneShot int
	exactOnline  int
}

func coreHistories() []coreHistory {
	ok := adt.WriteOutput()
	inv, res := trace.Invoke, trace.Response
	rd1, rd2 := adt.Tag(adt.ReadInput(), "1"), adt.Tag(adt.ReadInput(), "2")
	p1, p2, p3 := adt.Tag(adt.ProposeInput("a"), "1"), adt.Tag(adt.ProposeInput("b"), "2"), adt.Tag(adt.ProposeInput("c"), "3")
	dq1, dq2 := adt.Tag(adt.DeqInput(), "1"), adt.Tag(adt.DeqInput(), "2")
	lk1, ul1, lk2, ul2 := adt.Tag(adt.LockInput(), "1"), adt.Tag(adt.UnlockInput(), "1"), adt.Tag(adt.LockInput(), "2"), adt.Tag(adt.UnlockInput(), "2")
	pp1, pp2 := adt.Tag(adt.PopInput(), "1"), adt.Tag(adt.PopInput(), "2")
	wa, wb := adt.WriteInput("a"), adt.WriteInput("b")
	ea, eb := adt.EnqInput("a"), adt.EnqInput("b")
	pa, pb := adt.PushInput("a"), adt.PushInput("b")
	return []coreHistory{
		{"register", adt.Register{}, trace.Trace{
			inv("c1", 1, wa), inv("c2", 1, rd1), res("c1", 1, wa, ok), res("c2", 1, rd1, adt.ReadOutput("a")),
			inv("c1", 1, wb), inv("c2", 1, rd2), res("c2", 1, rd2, adt.ReadOutput("a")), res("c1", 1, wb, ok),
		}, 10, 11},
		{"consensus", adt.Consensus{}, trace.Trace{
			inv("c1", 1, p1), inv("c2", 1, p2), res("c2", 1, p2, adt.DecideOutput("a")), res("c1", 1, p1, adt.DecideOutput("a")),
			inv("c3", 1, p3), res("c3", 1, p3, adt.DecideOutput("a")),
		}, 7, 7},
		{"queue", adt.Queue{}, trace.Trace{
			inv("c1", 1, ea), inv("c2", 1, eb), res("c1", 1, ea, ok), res("c2", 1, eb, ok),
			inv("c1", 1, dq1), inv("c2", 1, dq2), res("c1", 1, dq1, adt.ReadOutput("b")), res("c2", 1, dq2, adt.ReadOutput("a")),
		}, 16, 16},
		{"mutex", adt.Mutex{}, trace.Trace{
			inv("c1", 1, lk1), res("c1", 1, lk1, ok), inv("c1", 1, ul1), inv("c2", 1, lk2),
			res("c1", 1, ul1, ok), res("c2", 1, lk2, ok), inv("c2", 1, ul2), res("c2", 1, ul2, ok),
		}, 9, 10},
		{"stack", adt.Stack{}, trace.Trace{
			inv("c1", 1, pa), inv("c2", 1, pb), res("c1", 1, pa, ok), res("c2", 1, pb, ok),
			inv("c1", 1, pp1), res("c1", 1, pp1, adt.ReadOutput("b")), inv("c2", 1, pp2), res("c2", 1, pp2, adt.ReadOutput("a")),
		}, 12, 12},
	}
}

// TestNilContextEveryEntryPoint: every checker entry point takes a nil
// context as context.Background(), on every folder with a fast-path
// core — the fast paths included.
func TestNilContextEveryEntryPoint(t *testing.T) {
	entries := map[string]func(adt.Folder, trace.Trace) (bool, error){
		"lin.Check": func(f adt.Folder, tr trace.Trace) (bool, error) {
			r, err := lin.Check(nil, f, tr)
			return r.OK, err
		},
		"lin.NewSession": func(f adt.Folder, tr trace.Trace) (bool, error) {
			s := lin.NewSession(nil, f)
			if err := s.FeedAll(tr); err != nil {
				return false, err
			}
			r, err := s.Result()
			return r.OK, err
		},
		"slin.Check": func(f adt.Folder, tr trace.Trace) (bool, error) {
			r, err := slin.Check(nil, f, slin.UniversalRInit{}, 1, 2, tr)
			return r.OK, err
		},
		"slin.NewSession": func(f adt.Folder, tr trace.Trace) (bool, error) {
			s, err := slin.NewSession(nil, f, slin.UniversalRInit{}, 1, 2)
			if err != nil {
				return false, err
			}
			if err := s.FeedAll(tr); err != nil {
				return false, err
			}
			r, err := s.Result()
			return r.OK, err
		},
		"speclin.Check": func(f adt.Folder, tr trace.Trace) (bool, error) {
			r, err := speclin.Check(nil, speclin.CheckSpec{Folder: f}, tr)
			return r.Verdict == speclin.Linearizable, err
		},
		"speclin.NewSession": func(f adt.Folder, tr trace.Trace) (bool, error) {
			s, err := speclin.NewSession(nil, speclin.CheckSpec{Folder: f})
			if err != nil {
				return false, err
			}
			for _, a := range tr {
				if err := s.Feed(a); err != nil {
					return false, err
				}
			}
			r, err := s.Report()
			return r.Verdict == speclin.Linearizable, err
		},
	}
	for name, run := range entries {
		for _, h := range coreHistories() {
			t.Run(name+"/"+h.name, func(t *testing.T) {
				if ok, err := run(h.f, h.tr); err != nil || !ok {
					t.Fatalf("nil context: linearizable %v, error %v", ok, err)
				}
			})
		}
	}
}

// TestDispatchHonoursExact: check.WithExact is the one fast/exact switch
// (DESIGN.md, decision 36). On every folder with a core, one-shot
// lin.Check, a lin session and an slin session at (1,2) run the core by
// default — one node per fed action — and the exact engine under
// WithExact(true), spending exactly what it spent before the switch
// was unified. An slin session at m > 1 never runs a core.
func TestDispatchHonoursExact(t *testing.T) {
	ctx := context.Background()
	entries := []struct {
		name    string
		oneShot bool
		run     func(adt.Folder, trace.Trace, ...check.Option) (bool, int, error)
	}{
		{"lin.Check", true, func(f adt.Folder, tr trace.Trace, opts ...check.Option) (bool, int, error) {
			r, err := lin.Check(ctx, f, tr, opts...)
			return r.OK, r.Nodes, err
		}},
		{"lin.NewSession", false, func(f adt.Folder, tr trace.Trace, opts ...check.Option) (bool, int, error) {
			s := lin.NewSession(ctx, f, opts...)
			err := s.FeedAll(tr)
			return s.Verdict() == check.Linearizable, s.Nodes(), err
		}},
		{"slin.NewSession", false, func(f adt.Folder, tr trace.Trace, opts ...check.Option) (bool, int, error) {
			s, err := slin.NewSession(ctx, f, slin.UniversalRInit{}, 1, 2, opts...)
			if err == nil {
				err = s.FeedAll(tr)
			}
			r, rerr := s.Result()
			return r.OK, r.Nodes, errors.Join(err, rerr)
		}},
	}
	for _, h := range coreHistories() {
		for _, e := range entries {
			ok, nodes, err := e.run(h.f, h.tr)
			if err != nil || !ok || nodes != len(h.tr) {
				t.Errorf("%s %s: linearizable %v in %d nodes (%v); want the core, one node per action of %d",
					h.name, e.name, ok, nodes, err, len(h.tr))
			}
			want := h.exactOnline
			if e.oneShot {
				want = h.exactOneShot
			}
			ok, nodes, err = e.run(h.f, h.tr, check.WithExact(true))
			if err != nil || !ok || nodes != want {
				t.Errorf("%s %s, WithExact(true): linearizable %v in %d nodes (%v); want the exact engine's %d",
					h.name, e.name, ok, nodes, err, want)
			}
		}
	}
	tr := workload.SecondPhase(rand.New(rand.NewSource(1)), 2, workload.PhaseOpts{})
	var nodes [2]int
	for i, exact := range []bool{false, true} {
		s, err := slin.NewSession(ctx, adt.Consensus{}, slin.ConsensusRInit{}, 2, 3, check.WithExact(exact))
		if err != nil {
			t.Fatal(err)
		}
		if err := s.FeedAll(tr); err != nil {
			t.Fatal(err)
		}
		nodes[i] = s.Nodes()
	}
	if nodes[0] != nodes[1] || nodes[0] <= len(tr) {
		t.Errorf("slin(2,3) session: %d nodes by default, %d exact; want the exact engine's either way", nodes[0], nodes[1])
	}
}

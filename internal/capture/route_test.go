package capture

import (
	"context"
	"math"
	"strings"
	"testing"

	speclin "repro"
	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/keyed"
	"repro/internal/lin"
	"repro/internal/trace"
)

// The router hands each response to the handle of its proc's open
// operation (DESIGN.md, decision 37). These tests hold it to a replay of
// the merged trace that routes every action by its key and pairs each
// response with its client's open invocation in that key, as per-key
// sessions fed actions did, and to the well-formedness checks they made.

// openFor opens structure's sessions as the hunt does.
func openFor(ctx context.Context, f adt.Folder) func(bool) *lin.Session {
	return func(bool) *lin.Session {
		return lin.NewSession(ctx, f, check.WithWitness(false), check.WithBudget(5_000_000))
	}
}

// liveAndReplayed runs one live hunt of cfg through the router, keeping
// the merged trace as Drain would hand it out, then replays that trace
// into a second keyed set, routing every action by its parsed key and
// pairing responses by client within the key. It returns both reports
// and how often the router parsed a key.
func liveAndReplayed(t *testing.T, cfg Config) (live, replay keyed.Report, parsed int) {
	t.Helper()
	cfg = cfg.withDefaults()
	sut, err := newStructure(cfg.Structure, cfg.Mutant, true)
	if err != nil {
		t.Fatal(err)
	}
	h := &huntState{cfg: cfg, sut: sut}
	rec := NewRecorder(cfg.Goroutines)
	f, keyOf := checkerOf(cfg.Structure)
	ctx := huntCtx(t)
	set := keyed.New(keyed.Policy{Sessions: true}, openFor(ctx, f))
	counted := func(in trace.Value) string { parsed++; return keyOf(in) }
	if keyOf == nil {
		counted = nil
	}
	emit := router{set, counted}.emit
	var merged trace.Trace
	if cfg.Structure == StructQueue {
		h.prefill(rec.Proc(0))
	}
	rec.drainLive(h.start(rec, nil), func(p *Proc, ev *Event) {
		merged = append(merged, p.action(ev))
		emit(p, ev)
	})
	again := keyed.New(keyed.Policy{Sessions: true}, openFor(ctx, f))
	open := map[string]map[trace.ClientID]keyed.Op{} // per key, each client's open operation
	for _, a := range merged {
		key := ""
		if keyOf != nil {
			key = keyOf(a.Input)
		}
		if open[key] == nil {
			open[key] = map[trace.ClientID]keyed.Op{}
		}
		op, isOpen := open[key][a.Client]
		switch {
		case a.Kind == trace.Inv && !isOpen:
			open[key][a.Client] = again.Invoke(key, a.Client, a.Input)
		case a.Kind == trace.Res && isOpen && op.Input() == a.Input:
			delete(open[key], a.Client)
			again.Respond(op, a.Output)
		default:
			again.Malformed(key, a)
		}
	}
	return set.Report(), again.Report(), parsed
}

// TestRouterEqualsFeedReplay: on the map, the mutex and the queue, clean
// and with the seeded mutant, the live hunt's report equals a keyed
// replay of its merged trace in verdict, key, reason, histories, actions and
// nodes; the clean runs stay on the fast path, each mutant is caught
// within ten rounds, and the map's router parses one key an operation —
// never a response's.
func TestRouterEqualsFeedReplay(t *testing.T) {
	for _, structure := range []string{StructMap, StructMutex, StructQueue} {
		for _, mutant := range []string{"", Mutants[structure]} {
			t.Run(structure+"/"+mutant, func(t *testing.T) {
				for seed := int64(1); seed <= 10; seed++ {
					live, replay, parsed := liveAndReplayed(t, Config{Structure: structure, Mutant: mutant,
						Goroutines: 4, Ops: huntOps(t, 300), Keys: 4, Seed: seed})
					live.Wall, replay.Wall = 0, 0
					if live != replay {
						t.Fatalf("round %d: live %+v, replay %+v", seed, live, replay)
					}
					if structure == StructMap && int64(parsed) != live.Ops {
						t.Fatalf("round %d: %d keys parsed for %d operations", seed, parsed, live.Ops)
					}
					if mutant == "" {
						if live.Verdict != speclin.Linearizable || live.Nodes != live.Actions {
							t.Fatalf("clean round %d: %v in %d nodes for %d actions (%s)",
								seed, live.Verdict, live.Nodes, live.Actions, live.Reason)
						}
						return
					}
					if live.Verdict == speclin.NotLinearizable {
						t.Logf("caught in round %d: key %q: %s", seed, live.Key, live.Reason)
						return
					}
				}
				t.Fatal("the mutant was not caught in 10 rounds")
			})
		}
	}
}

// TestRouterIllFormed: a proc stream that breaks its alternation makes
// the offending event's history NotLinearizable, whichever history the
// proc's open operation lives in — an invocation while one is open (on
// the same key or another), a response with none open, a response with
// another input. Feeding per-key sessions, as the router did before it
// held the procs' handles, let the second case through.
func TestRouterIllFormed(t *testing.T) {
	a, b := mapWriteInput("k0", "a"), mapReadInput("k0", "b")
	c := mapWriteInput("k1", "c")
	ok := adt.WriteOutput()
	for _, tc := range []struct {
		name   string
		record func(p *Proc)
		key    string
	}{
		{"inv while open", func(p *Proc) { p.Inv(a); p.Inv(b) }, "k0"},
		{"inv while open on another key", func(p *Proc) { p.Inv(a); p.Inv(c); p.Res(a, ok) }, "k1"},
		{"res without inv", func(p *Proc) { p.Res(a, ok) }, "k0"},
		{"res with another input", func(p *Proc) { p.Inv(a); p.Res(c, ok) }, "k1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := NewRecorder(2)
			// A well-formed proc beside the ill-formed one.
			rec.Proc(1).Inv(mapWriteInput("k0", "z"))
			tc.record(rec.Proc(0))
			rec.Proc(1).Res(mapWriteInput("k0", "z"), ok)
			rec.Proc(0).Close()
			rec.Proc(1).Close()
			set := keyed.New(keyed.Policy{Sessions: true}, openFor(t.Context(), adt.Register{}))
			rec.each(math.MaxInt64, router{set, mapKeyOf}.emit)
			rep := routeReport(set.Report())
			if rep.Verdict != speclin.NotLinearizable || !strings.Contains(rep.Reason, "trace is not well-formed") ||
				!strings.Contains(rep.Reason, `"`+tc.key+`"`) {
				t.Fatalf("verdict %v, reason %q; want NotLinearizable, key %q not well-formed", rep.Verdict, rep.Reason, tc.key)
			}
		})
	}
}

package diffcheck

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/lin"
	"repro/internal/trace"
)

// descheduled generates the history of clients goroutines hammering one
// object while the scheduler keeps taking them off the CPU mid-operation
// — the shape a loaded box gives the capture harness, and the one whose
// verdicts used to depend on it (ROADMAP item 1). Every step moves one
// running client through invoke → take effect (the ADT state steps and
// the output is fixed) → respond; with probability 1/12 a client that
// has just invoked or taken effect is descheduled for 50–450 steps, its
// operation staying open across everything the others do meanwhile;
// after steps steps the open operations drain.
// The history is linearizable at the effect points. tagged makes every
// input unique; untagged clients hold equal inputs open side by side.
// The second result is the largest number of operations one operation
// stayed open across.
func descheduled(f adt.Folder, r *rand.Rand, clients, steps int, inputs []trace.Value, tagged bool) (trace.Trace, int) {
	type client struct {
		id     trace.ClientID
		phase  int // 0 idle, 1 invoked, 2 took effect
		in     trace.Value
		out    trace.Value
		wake   int // descheduled until this step
		others int // operations invoked by others since this one's invocation
	}
	cs := make([]client, clients)
	for i := range cs {
		cs[i].id = trace.ClientID("g" + strconv.Itoa(i))
	}
	var tr trace.Trace
	st := f.Empty()
	ops, longest := 0, 0
	for step, open := 0, 0; step < steps || open > 0; step++ {
		var running []int
		for i := range cs {
			if (step < steps && cs[i].wake <= step) || (step >= steps && cs[i].phase > 0) {
				running = append(running, i)
			}
		}
		c := &cs[running[r.Intn(len(running))]]
		switch c.phase {
		case 0:
			c.in = inputs[r.Intn(len(inputs))]
			if tagged {
				ops++
				c.in = adt.Tag(c.in, strconv.Itoa(ops))
			}
			tr = append(tr, trace.Invoke(c.id, 1, c.in))
			for i := range cs {
				cs[i].others++
			}
			c.others = 0
			open++
		case 1:
			c.out, st = f.Out(st, c.in), f.Step(st, c.in)
		case 2:
			tr = append(tr, trace.Response(c.id, 1, c.in, c.out))
			longest = max(longest, c.others)
			open--
		}
		// Someone keeps running: the last client awake is never descheduled.
		if c.phase = (c.phase + 1) % 3; c.phase != 0 && step < steps && len(running) > 1 && r.Intn(12) == 0 {
			c.wake = step + 50 + r.Intn(401)
		}
	}
	return tr, longest
}

// TestSessionDescheduledShapes is the verdict differential on the shape
// that used to exhaust the session: 2, 4 and 8 clients on one set key
// and on one register, operations held open across hundreds of others,
// with unique and with duplicate inputs, as generated and with the
// output of one read-only operation replaced. After every action the
// session's verdict is compared with the one-shot engines, and at
// intervals its witness is verified. The engines: one-shot Check at its
// default budget, at every response of the first hundred actions and one
// in eight afterwards, which must decide every prefix it is asked (a
// prefix is dearer than the full history: its open operations never
// respond, which weakens the lookahead); on unique inputs the classical
// checker, which decides every prefix and equals Check there by Theorem
// 1; and on the shortest prefixes the string-keyed reference. A prefix
// that ends in an invocation, or extends a refuted one, has its
// predecessor's verdict. The full histories are decided one-shot within
// 250k nodes — three of them are where the depth-first search this
// engine replaced ended Unknown after two million.
func TestSessionDescheduledShapes(t *testing.T) {
	ctx := context.Background()
	objects := []struct {
		name   string
		f      adt.Folder
		inputs []trace.Value
		// wrong maps a read-only operation's output to the other one.
		wrong func(trace.Value) trace.Value
	}{
		{"set", adt.Set{}, []trace.Value{adt.AddInput("x"), adt.RemoveInput("x"), adt.HasInput("x"), adt.HasInput("x")},
			func(o trace.Value) trace.Value { return adt.BoolOutput(o != adt.BoolOutput(true)) }},
		{"register", adt.Register{}, []trace.Value{adt.WriteInput("a"), adt.WriteInput("b"), adt.ReadInput(), adt.ReadInput()},
			func(o trace.Value) trace.Value {
				if o == adt.ReadOutput("a") {
					return adt.ReadOutput("b")
				}
				return adt.ReadOutput("a")
			}},
	}
	var total descheduledStats
	for _, ob := range objects {
		for _, clients := range []int{2, 4, 8} {
			for _, tagged := range []bool{true, false} {
				name := fmt.Sprintf("%s/g%d/tagged=%v", ob.name, clients, tagged)
				r := rand.New(rand.NewSource(int64(1900 + clients)))
				clean, longest := descheduled(ob.f, r, clients, 900, ob.inputs, tagged)
				if longest < 50 {
					t.Fatalf("%s: no operation stayed open across 50 others (longest %d)", name, longest)
				}
				// Replace the output of the read-only operation in the
				// history's middle third that responds with the fewest
				// operations open around it, where a wrong answer is hardest
				// to explain away.
				bad := append(trace.Trace(nil), clean...)
				at, open, fewest := -1, 0, clients+1
				for i, a := range bad[:2*len(bad)/3] {
					if a.Kind == trace.Inv {
						open++
						continue
					}
					open--
					if i > len(bad)/3 && open < fewest && ob.f.Step(ob.f.Empty(), a.Input) == ob.f.Empty() {
						at, fewest = i, open
					}
				}
				bad[at].Output = ob.wrong(bad[at].Output)
				for i, tr := range []trace.Trace{clean, bad} {
					st, err := descheduledPrefixes(ctx, ob.f, tr, tagged)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if full, err := lin.Check(ctx, ob.f, tr, check.WithWitness(false), check.WithExact(true)); err != nil || full.OK != st.ok || full.Nodes > 250_000 {
						t.Fatalf("%s: one-shot Check of the full history: %+v, %v; want verdict %v within 250000 nodes", name, full, err, st.ok)
					}
					if i == 0 && !st.ok {
						t.Fatalf("%s: history judged not linearizable as generated", name)
					}
					total.add(st)
				}
			}
		}
	}
	t.Logf("%d prefixes, %d of %d asked decided by one-shot Check (dearest %d nodes), %d by the classical checker; %d of 12 corrupted histories refuted",
		total.prefixes, total.oneShot, total.asked, total.dearest, total.classical, total.refuted)
	if total.refuted < 6 || total.oneShot != total.asked {
		t.Fatalf("differential too thin: %d of 12 corrupted histories refuted, one-shot Check decided %d of the %d prefixes it was asked",
			total.refuted, total.oneShot, total.asked)
	}
}

// descheduledStats counts what one differential run compared.
type descheduledStats struct {
	ok                                  bool // the session's final verdict
	prefixes, asked, oneShot, classical int
	dearest                             int // most nodes one one-shot prefix check spent
	refuted                             int
}

func (s *descheduledStats) add(o descheduledStats) {
	s.prefixes += o.prefixes
	s.asked += o.asked
	s.oneShot += o.oneShot
	s.classical += o.classical
	s.dearest = max(s.dearest, o.dearest)
	if !o.ok {
		s.refuted++
	}
}

// descheduledPrefixes feeds tr to a session and compares its verdict,
// after every action, with the one-shot engines that decide that prefix
// (see TestSessionDescheduledShapes).
func descheduledPrefixes(ctx context.Context, f adt.Folder, tr trace.Trace, unique bool) (descheduledStats, error) {
	const (
		oneShotEvery = 96 // one-shot Check is asked at every response up to here, then at one in eight
		refMax       = 16 // the string-keyed reference copies chains: short prefixes only
	)
	s := lin.NewSession(ctx, f, check.WithExact(true))
	st := descheduledStats{ok: true, prefixes: len(tr)}
	for k, a := range tr {
		pre := tr[:k+1]
		if err := s.Feed(a); err != nil {
			return st, fmt.Errorf("session feed %d: %w", k, err)
		}
		got := s.Verdict() == check.Linearizable
		if a.Kind == trace.Inv || (!got && !st.ok) {
			// An invocation cannot change the verdict, and a refuted prefix
			// stays refuted: nothing to ask the one-shot engines.
			if got != st.ok {
				return st, disagree(pre, "prefix %d: session verdict changed from %v to %v", k+1, st.ok, got)
			}
			continue
		}
		st.ok = got
		oracle := func(name string, res lin.Result, err error) error {
			if err != nil {
				return fmt.Errorf("%s prefix %d: %w", name, k+1, err)
			}
			if res.OK != got {
				return disagree(pre, "prefix %d: session=%v, %s=%v", k+1, got, name, res.OK)
			}
			return nil
		}
		if k < oneShotEvery || k%8 == 1 {
			st.asked++
			res, err := lin.Check(ctx, f, pre, check.WithWitness(false), check.WithExact(true))
			if !errors.Is(err, lin.ErrBudget) {
				if err := oracle("one-shot", res, err); err != nil {
					return st, err
				}
				st.oneShot++
				st.dearest = max(st.dearest, res.Nodes)
			}
		}
		if unique {
			res, err := lin.CheckClassical(ctx, f, pre)
			if err := oracle("classical", res, err); err != nil {
				return st, err
			}
			st.classical++
		}
		if k < refMax {
			res, err := lin.CheckReference(f, pre)
			if err := oracle("reference", res, err); err != nil {
				return st, err
			}
		}
		if got && (k%97 == 0 || k == len(tr)-1) {
			res, err := s.Result()
			if err != nil {
				return st, err
			}
			if werr := lin.VerifyWitness(f, pre, res.Witness); werr != nil {
				return st, disagree(pre, "prefix %d: session witness invalid: %v", k+1, werr)
			}
		}
	}
	return st, nil
}

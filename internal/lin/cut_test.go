package lin

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
)

// Quiescent cuts (DESIGN.md, decision 26) are held here to the session
// that never cuts and to the exact engine: the same verdict, reason and
// length on every prefix of simulated histories that are often quiescent
// and leave the fast fragment late, after cuts.

// noCuts is the test-only switch that turns a session's cuts off.
func noCuts(s *Session) *Session {
	s.cuts = nil
	return s
}

// cutSim is the sequential object a simulated history runs against:
// clients invoke inputs, each open operation takes effect at a moment
// the simulation picks (when ready allows), and responds later with the
// output it took effect with. Histories so made are linearizable until
// noise corrupts an output.
type cutSim interface {
	// input is client c's next input; n is fresh, late says a fragment
	// exit may be injected.
	input(r *rand.Rand, c, n int, late bool) trace.Value
	// ready reports whether c's open operation may take effect now.
	ready(c int, in trace.Value) bool
	// apply makes c's operation take effect and returns its output.
	apply(c int, in trace.Value) trace.Value
	// owes reports whether the idle client c must act before every open
	// operation can take effect (a lock holder must release).
	owes(c int) bool
	// noise is a plausible output that may not be the right one.
	noise(r *rand.Rand) trace.Value
}

// simHistory runs sim for about n actions over up to three clients.
// Every step starts draining with probability 1/12: no operation starts
// (bar a release the open ones wait for) until none is open, so
// quiescent points are frequent.
func simHistory(r *rand.Rand, sim cutSim, n int) trace.Trace {
	type op struct {
		in, out   trace.Value
		open, eff bool
	}
	clients := 1 + r.Intn(3)
	ops := make([]op, clients)
	var tr trace.Trace
	draining, seq := false, 0
	for len(tr) < n || draining {
		if !draining && r.Intn(12) == 0 {
			draining = true
		}
		c := r.Intn(clients)
		if draining {
			c = -1
			for i := range ops {
				if ops[i].open && (ops[i].eff || sim.ready(i, ops[i].in)) || !ops[i].open && sim.owes(i) {
					c = i
					break
				}
			}
			if c < 0 {
				draining = false
				continue
			}
		}
		o, id := &ops[c], trace.ClientID("c"+strconv.Itoa(c))
		switch {
		case !o.open:
			seq++
			o.in, o.open, o.eff = sim.input(r, c, seq, len(tr) > 24 && r.Intn(40) == 0), true, false
			tr = append(tr, trace.Invoke(id, 1, o.in))
		case !o.eff:
			if sim.ready(c, o.in) {
				o.out, o.eff = sim.apply(c, o.in), true
			}
		default:
			out := o.out
			if r.Intn(80) == 0 {
				out = sim.noise(r)
			}
			tr = append(tr, trace.Response(id, 1, o.in, out))
			o.open = false
		}
	}
	return tr
}

// foldSim is a cutSim's sequential object: f's state, every operation
// ready at once.
type foldSim struct {
	f  adt.Folder
	st adt.State
}

func (s *foldSim) ready(int, trace.Value) bool { return true }

func (s *foldSim) apply(_ int, in trace.Value) trace.Value {
	out := s.f.Out(s.st, in)
	s.st = s.f.Step(s.st, in)
	return out
}

func (s *foldSim) owes(int) bool { return false }

// regSim: fresh writes and tagged reads; a late exit rewrites a recent
// value, repeats a read's input or is grammar-invalid. writes of every
// three operations are writes (1 when 0).
type regSim struct {
	foldSim
	writes  int
	written []trace.Value
	reads   []trace.Value
}

func (s *regSim) input(r *rand.Rand, _, n int, late bool) trace.Value {
	id := strconv.Itoa(n)
	if late {
		switch {
		case r.Intn(3) == 0 && len(s.written) > 0:
			return adt.Tag(adt.WriteInput(s.written[len(s.written)-1-r.Intn(min(3, len(s.written)))]), "dup"+id)
		case r.Intn(2) == 0 && len(s.reads) > 0:
			return s.reads[r.Intn(len(s.reads))]
		}
		return "q:" + id
	}
	if r.Intn(3) < max(1, s.writes) {
		v := trace.Value("v" + id)
		s.written = append(s.written, v)
		return adt.WriteInput(v)
	}
	in := adt.Tag(adt.ReadInput(), id)
	s.reads = append(s.reads, in)
	return in
}

// noise reads one of the last few values written, or ⊥.
func (s *regSim) noise(r *rand.Rand) trace.Value {
	if len(s.written) == 0 || r.Intn(4) == 0 {
		return adt.ReadOutput(adt.Bottom)
	}
	return adt.ReadOutput(s.written[len(s.written)-1-r.Intn(min(4, len(s.written)))])
}

// mutexSim: clients lock and unlock in turn, an acquire waiting for the
// lock; a late exit releases a lock the client does not hold (an "err:"
// output when it is free) or repeats an input.
type mutexSim struct {
	foldSim
	holder int // the client holding the lock, -1 when free
	used   []trace.Value
}

func (s *mutexSim) input(r *rand.Rand, c, n int, late bool) trace.Value {
	id := strconv.Itoa(n)
	var in trace.Value
	switch {
	case late && r.Intn(2) == 0 && len(s.used) > 0:
		return s.used[r.Intn(len(s.used))]
	case late || s.holder == c:
		in = adt.Tag(adt.UnlockInput(), id)
	default:
		in = adt.Tag(adt.LockInput(), id)
	}
	s.used = append(s.used, in)
	return in
}

// ready holds an acquire back while another client holds the lock (its
// holder's own repeated acquire takes effect, and fails).
func (s *mutexSim) ready(c int, in trace.Value) bool {
	return adt.Untag(in) != adt.LockInput() || s.st == mutexFree || s.holder == c
}

func (s *mutexSim) apply(c int, in trace.Value) trace.Value {
	out := s.foldSim.apply(c, in)
	s.holder = -1
	if s.st == mutexHeld {
		s.holder = c
	}
	return out
}

func (s *mutexSim) owes(c int) bool { return s.holder == c }

func (s *mutexSim) noise(r *rand.Rand) trace.Value {
	return []trace.Value{adt.WriteOutput(), adt.ErrOutput("held"), adt.ErrOutput("free")}[r.Intn(3)]
}

// consSim: tagged proposals of three values; a late exit repeats an
// input or proposes ⊥.
type consSim struct {
	foldSim
	used []trace.Value
}

func (s *consSim) input(r *rand.Rand, _, n int, late bool) trace.Value {
	if late {
		if r.Intn(2) == 0 {
			return s.used[r.Intn(len(s.used))]
		}
		return adt.ProposeInput(adt.Bottom)
	}
	in := adt.Tag(adt.ProposeInput(trace.Value("abc"[r.Intn(3):][:1])), strconv.Itoa(n))
	s.used = append(s.used, in)
	return in
}

func (s *consSim) noise(r *rand.Rand) trace.Value {
	return adt.DecideOutput(trace.Value("abc"[r.Intn(3):][:1]))
}

// stackSim: fresh pushes and tagged pops that keep the stack about one
// deep, so cuts are answered and the exact engine stays small (a pop of
// the empty stack is an exit); a late exit pushes a value again.
type stackSim struct {
	foldSim
	pushed []trace.Value
}

func (s *stackSim) input(r *rand.Rand, _, n int, late bool) trace.Value {
	id := strconv.Itoa(n)
	if late && len(s.pushed) > 0 {
		return adt.Tag(adt.PushInput(s.pushed[r.Intn(len(s.pushed))]), "dup"+id)
	}
	// The state joins the elements with NUL bytes (adt.Stack): push onto
	// an empty stack, pop one two deep.
	if s.st == "" || !strings.ContainsRune(string(s.st), 0) && r.Intn(2) == 0 {
		v := trace.Value("v" + id)
		s.pushed = append(s.pushed, v)
		return adt.PushInput(v)
	}
	return adt.Tag(adt.PopInput(), id)
}

func (s *stackSim) noise(r *rand.Rand) trace.Value {
	if len(s.pushed) == 0 {
		return adt.ReadOutput(adt.Bottom)
	}
	return adt.ReadOutput(s.pushed[len(s.pushed)-1-r.Intn(min(3, len(s.pushed)))])
}

// queueSim: fresh enqueues while the queue is under three deep, and
// tagged dequeues, each claiming an element no other open dequeue has
// claimed, so the exact engine stays small while open dequeues absorb
// owed values; a late exit enqueues a value again, repeats a dequeue's
// input or enqueues nothing.
type queueSim struct {
	foldSim
	claims   int // open dequeues not yet applied
	enqueued []trace.Value
	deqs     []trace.Value
}

func (s *queueSim) input(r *rand.Rand, _, n int, late bool) trace.Value {
	id := strconv.Itoa(n)
	elems := 0
	if s.st != "" {
		elems = 1 + strings.Count(string(s.st), "\x00")
	}
	if elems <= s.claims || elems < 3 && r.Intn(2) == 0 {
		if late && r.Intn(2) == 0 {
			if len(s.enqueued) > 0 {
				return adt.Tag(adt.EnqInput(s.enqueued[r.Intn(len(s.enqueued))]), "dup"+id)
			}
			return adt.EnqInput("")
		}
		v := trace.Value("v" + id)
		s.enqueued = append(s.enqueued, v)
		return adt.EnqInput(v)
	}
	s.claims++
	if late && len(s.deqs) > 0 {
		return s.deqs[r.Intn(len(s.deqs))]
	}
	in := adt.Tag(adt.DeqInput(), id)
	s.deqs = append(s.deqs, in)
	return in
}

func (s *queueSim) apply(c int, in trace.Value) trace.Value {
	if adt.Untag(in) == adt.DeqInput() {
		s.claims--
	}
	return s.foldSim.apply(c, in)
}

// noise dequeues one of the last few values enqueued, or nothing.
func (s *queueSim) noise(r *rand.Rand) trace.Value {
	if len(s.enqueued) == 0 || r.Intn(4) == 0 {
		return adt.ReadOutput(adt.Bottom)
	}
	return adt.ReadOutput(s.enqueued[len(s.enqueued)-1-r.Intn(min(4, len(s.enqueued)))])
}

func foldOf(f adt.Folder) foldSim { return foldSim{f: f, st: f.Empty()} }

// cutSims are the simulated folders. wide is how many of a row's
// quiescent answers must hold more than one state: the register's, whose
// restart then starts from several initial values (decision 35), and
// whose "overlap" row writes two operations in three so that they do.
var cutSims = []struct {
	name string
	f    adt.Folder
	sim  func() cutSim
	wide int
}{
	{"register", adt.Register{}, func() cutSim { return &regSim{foldSim: foldOf(adt.Register{})} }, 1000},
	{"register/overlap", adt.Register{}, func() cutSim { return &regSim{foldSim: foldOf(adt.Register{}), writes: 2} }, 4000},
	{"mutex", adt.Mutex{}, func() cutSim { return &mutexSim{foldSim: foldOf(adt.Mutex{}), holder: -1} }, 0},
	{"consensus", adt.Consensus{}, func() cutSim { return &consSim{foldSim: foldOf(adt.Consensus{})} }, 0},
	{"stack", adt.Stack{}, func() cutSim { return &stackSim{foldSim: foldOf(adt.Stack{})} }, 0},
	{"queue", adt.Queue{}, func() cutSim { return &queueSim{foldSim: foldOf(adt.Queue{})} }, 0},
}

// frontierStates is the set of end states of an exact session's
// frontier at a quiescent point, failing if a configuration still holds
// an unclaimed entry (decision 20 says none can).
func frontierStates(t *testing.T, s *Session) map[adt.State]bool {
	t.Helper()
	set := map[adt.State]bool{}
	for _, c := range s.frontier {
		if len(c.syms) != 0 {
			t.Fatalf("a configuration holds %d unclaimed entries with no operation open", len(c.syms))
		}
		set[c.end] = true
	}
	return set
}

// seedStates is the set of end states an exact session reaches from the
// empty state on a cut's seed; the seed's operations must all respond.
func seedStates(t *testing.T, f adt.Folder, seed trace.Trace) []adt.State {
	t.Helper()
	s := NewSession(context.Background(), f, check.WithWitness(false), check.WithExact(true))
	if err := s.FeedAll(seed); err != nil || s.Verdict() != check.Linearizable || s.open != 0 {
		t.Fatalf("seed %v: verdict %v, %d open, %v", seed, s.Verdict(), s.open, err)
	}
	var got []adt.State
	for st := range frontierStates(t, s) {
		got = append(got, st)
	}
	return got
}

// sameStates reports whether a cut's answer is exactly the state set want.
func sameStates(got []adt.State, want map[adt.State]bool) bool {
	seen := map[adt.State]bool{}
	for _, st := range got {
		if !want[st] || seen[st] {
			return false
		}
		seen[st] = true
	}
	return len(seen) == len(want)
}

// TestQuiescentCutsMatchExact: on every prefix of 1 500 simulated
// histories per folder, a witness-off fast session (which cuts), the
// same session with cuts off and an exact session agree on verdict,
// reason and length, and the cutting session never spends more search
// nodes than the one that does not — the same nodes while the latter is
// on the fast path; the former, which forgets at its cuts, may stay on it
// longer.
// Every answer the cutting session keeps — it covers the whole chunk since
// its previous cut, and its core restarts from it (decision 35) — must be
// exactly the exact frontier's set of end states; for the queue, whose
// answer is a seed, the states a fresh exact session reaches on it. A
// fourth session, a probe with cuts off, has its core asked at every
// quiescent point on the fast path, so that core restarts there too: its
// answers, each over a single quiescent-to-quiescent interval, are held to
// the same sets, and its verdict, reason and length to the exact
// session's. Enough of the histories must cut and then fall back, and
// enough register answers hold more than one value, for the differential
// to mean something.
func TestQuiescentCutsMatchExact(t *testing.T) {
	ctx := context.Background()
	opts := []check.Option{check.WithWitness(false), check.WithBudget(1_000_000)}
	for _, sc := range cutSims {
		t.Run(sc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(26))
			var cuts, cutThenExit, answered, wide int
			for iter := 0; iter < 1500; iter++ {
				tr := simHistory(r, sc.sim(), 40+r.Intn(160))
				cut := NewSession(ctx, sc.f, opts...)
				whole := noCuts(NewSession(ctx, sc.f, opts...))
				probe := noCuts(NewSession(ctx, sc.f, opts...))
				exact := NewSession(ctx, sc.f, append(opts, check.WithExact(true))...)
				if cut.cuts == nil {
					t.Fatal("a witness-off fast session does not cut")
				}
				lastCut := 0
				for k, a := range tr {
					wasFast := cut.fast != nil
					for _, s := range []*Session{cut, whole, probe, exact} {
						if err := s.Feed(a); err != nil {
							t.Fatalf("iter %d feed %d: %v\n%v", iter, k, err, tr[:k+1])
						}
					}
					if cut.cutFed != lastCut {
						lastCut = cut.cutFed
						cuts++
						got := cut.cutSt
						if got == nil {
							got = seedStates(t, sc.f, cut.cuts.cutSeed())
						}
						if want := frontierStates(t, exact); lastCut != k+1 || !sameStates(got, want) {
							t.Fatalf("iter %d prefix %d: the session cuts after %d actions at %q, the exact frontier ends in %v\n%v",
								iter, k+1, lastCut, got, want, tr[:k+1])
						}
					}
					if wasFast && cut.fast == nil && lastCut > 0 {
						cutThenExit++
					}
					er, _ := exact.Result()
					for _, s := range []struct {
						name string
						s    *Session
					}{{"cut", cut}, {"no cut", whole}, {"probe", probe}} {
						if r, _ := s.s.Result(); r.OK != er.OK || r.Reason != er.Reason || s.s.Verdict() != exact.Verdict() || s.s.Len() != k+1 {
							t.Fatalf("iter %d prefix %d (cut after %d): %s session %v %q over %d actions, exact %v %q\n%v",
								iter, k+1, lastCut, s.name, r.OK, r.Reason, s.s.Len(), er.OK, er.Reason, tr[:k+1])
						}
					}
					if cn, wn := cut.meter.Nodes, whole.meter.Nodes; cn > wn || whole.fast != nil && cut.Nodes() != whole.Nodes() {
						t.Fatalf("iter %d prefix %d: %d search nodes with cuts, %d without", iter, k+1, cn, wn)
					}
					if probe.fast == nil || probe.fastRej || probe.notWF != "" || probe.open != 0 {
						continue
					}
					if got, ok := probe.fast.(cutter).cutStates(); ok {
						if got == nil {
							got = seedStates(t, sc.f, probe.fast.(cutter).cutSeed())
						}
						if want := frontierStates(t, exact); !sameStates(got, want) {
							t.Fatalf("iter %d prefix %d: the core cuts at %q, the exact frontier ends in %v\n%v",
								iter, k+1, got, want, tr[:k+1])
						}
						answered++
						if len(got) > 1 {
							wide++
						}
					}
				}
			}
			t.Logf("%d cuts; %d histories left the fast path after a cut; %d quiescent answers checked, %d of more than one state",
				cuts, cutThenExit, answered, wide)
			if cuts < 1000 || cutThenExit < 100 || wide < sc.wide {
				t.Fatalf("%d cuts, %d exits after a cut and %d answers of more than one state: the histories do not exercise cuts",
					cuts, cutThenExit, wide)
			}
		})
	}
}

// TestRegisterCutStates pins the register's "can be last" rule on hand
// histories, each ending quiescent, against its expected states and the
// exact frontier's.
func TestRegisterCutStates(t *testing.T) {
	w := func(v trace.Value) trace.Value { return adt.WriteInput(v) }
	rd := func(tag string) trace.Value { return adt.Tag(adt.ReadInput(), tag) }
	ok := adt.WriteOutput()
	inv := func(c trace.ClientID, in trace.Value) trace.Action { return trace.Invoke(c, 1, in) }
	res := func(c trace.ClientID, in, out trace.Value) trace.Action { return trace.Response(c, 1, in, out) }
	for _, tc := range []struct {
		name string
		tr   trace.Trace
		want []adt.State
	}{
		{"no write", trace.Trace{inv("c1", rd("1")), res("c1", rd("1"), adt.ReadOutput(adt.Bottom))},
			[]adt.State{adt.State(adt.Bottom)}},
		{"sequential writes", trace.Trace{
			inv("c1", w("a")), res("c1", w("a"), ok), inv("c1", w("b")), res("c1", w("b"), ok),
		}, []adt.State{"b"}},
		{"overlapping writes", trace.Trace{
			inv("c1", w("a")), inv("c2", w("b")), res("c1", w("a"), ok), res("c2", w("b"), ok),
		}, []adt.State{"a", "b"}},
		// The read of a starts last, but a closed before b's write started:
		// b must follow a, so only b can be last.
		{"the latest start cannot be last", trace.Trace{
			inv("c1", w("a")), res("c1", w("a"), ok),
			inv("c2", w("b")),
			inv("c3", rd("1")), res("c3", rd("1"), adt.ReadOutput("a")),
			res("c2", w("b"), ok),
		}, []adt.State{"b"}},
		// The read of a starts last, a closes after b's only start and b
		// after the read's: either block can be last.
		{"the latest start can be last", trace.Trace{
			inv("c1", w("a")), inv("c2", w("b")),
			inv("c3", rd("1")), res("c3", rd("1"), adt.ReadOutput("a")),
			res("c2", w("b"), ok), res("c1", w("a"), ok),
		}, []adt.State{"a", "b"}},
		// A read joins a after a closed, starting last; a still closed after
		// b's only start, so it can be last, and b closed after the read's.
		{"a read joining a closed block keeps it last", trace.Trace{
			inv("c2", w("b")),
			inv("c1", w("a")), res("c1", w("a"), ok),
			inv("c3", rd("1")), res("c3", rd("1"), adt.ReadOutput("a")),
			res("c2", w("b"), ok),
		}, []adt.State{"a", "b"}},
		// b closed before the read of a started: a must follow b.
		{"a read after a closed write orders it first", trace.Trace{
			inv("c1", w("a")),
			inv("c2", w("b")), res("c2", w("b"), ok),
			inv("c3", rd("1")), res("c3", rd("1"), adt.ReadOutput("a")),
			res("c1", w("a"), ok),
		}, []adt.State{"a"}},
		// b's read starts after a's read returned: a must precede b.
		{"a later read orders the blocks", trace.Trace{
			inv("c1", w("a")), inv("c2", w("b")),
			inv("c3", rd("1")), res("c3", rd("1"), adt.ReadOutput("a")),
			inv("c3", rd("2")), res("c3", rd("2"), adt.ReadOutput("b")),
			res("c1", w("a"), ok), res("c2", w("b"), ok),
		}, []adt.State{"b"}},
	} {
		s := NewSession(context.Background(), adt.Register{}, check.WithWitness(false))
		ex := NewSession(context.Background(), adt.Register{}, check.WithExact(true))
		if err := errors.Join(s.FeedAll(tc.tr), ex.FeedAll(tc.tr)); err != nil {
			t.Fatal(err)
		}
		if s.fast == nil || s.Verdict() != check.Linearizable || s.open != 0 {
			t.Fatalf("%s: not a quiescent in-fragment history", tc.name)
		}
		got, _ := s.fast.(cutter).cutStates()
		want := map[adt.State]bool{}
		for _, st := range tc.want {
			want[st] = true
		}
		if !sameStates(got, want) || !sameStates(got, frontierStates(t, ex)) {
			t.Errorf("%s: the core cuts at %q, want %q; the exact frontier ends in %v", tc.name, got, tc.want, frontierStates(t, ex))
		}
	}
}

// TestRegisterRestart pins the register's restart from a cut (DESIGN.md,
// decision 35) on four hand histories. Each starts with the same sixteen
// actions — a, read five times, then overlapping writes of x and y — so a
// witness-off session cuts after them with initial values {x, y}; what
// follows is held to the exact engine on every prefix (verdict, reason,
// length) and to the path it must take.
func TestRegisterRestart(t *testing.T) {
	w := func(v trace.Value) trace.Value { return adt.WriteInput(v) }
	rd := func(tag string) trace.Value { return adt.Tag(adt.ReadInput(), tag) }
	ok := adt.WriteOutput()
	op := func(c trace.ClientID, in, out trace.Value) trace.Trace {
		return trace.Trace{trace.Invoke(c, 1, in), trace.Response(c, 1, in, out)}
	}
	var prefix trace.Trace
	prefix = append(prefix, op("c1", w("a"), ok)...)
	for i := 1; i <= 5; i++ {
		prefix = append(prefix, op("c1", rd(strconv.Itoa(i)), adt.ReadOutput("a"))...)
	}
	prefix = append(prefix, trace.Invoke("c1", 1, w("x")), trace.Invoke("c2", 1, w("y")),
		trace.Response("c1", 1, w("x"), ok), trace.Response("c2", 1, w("y"), ok))
	join := func(ts ...trace.Trace) trace.Trace {
		var all trace.Trace
		for _, t := range ts {
			all = append(all, t...)
		}
		return all
	}
	const (
		exits = iota
		rejects
		accepts
	)
	for _, tc := range []struct {
		name string
		tail trace.Trace
		want int
	}{
		{"a write of an initial value exits", op("c1", w("x"), ok), exits},
		{"reads of two initial values reject",
			join(op("c1", rd("6"), adt.ReadOutput("x")), op("c2", rd("7"), adt.ReadOutput("y"))), rejects},
		{"an initial read after a closed write rejects",
			join(op("c1", w("b"), ok), op("c2", rd("6"), adt.ReadOutput("x"))), rejects},
		// Both the written value and the read's input repeat ones the cut
		// forgot.
		{"an earlier value rewritten and read is accepted",
			join(op("c1", w("a"), ok), op("c2", rd("1"), adt.ReadOutput("a"))), accepts},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			s := NewSession(ctx, adt.Register{}, check.WithWitness(false))
			ex := NewSession(ctx, adt.Register{}, check.WithExact(true))
			tr := join(prefix, tc.tail)
			for k, a := range tr {
				if err := errors.Join(s.Feed(a), ex.Feed(a)); err != nil {
					t.Fatal(err)
				}
				sr, _ := s.Result()
				er, _ := ex.Result()
				if sr.OK != er.OK || sr.Reason != er.Reason || s.Verdict() != ex.Verdict() || s.Len() != ex.Len() {
					t.Fatalf("prefix %d: session %v %q over %d actions, exact %v %q over %d", k+1,
						sr.OK, sr.Reason, s.Len(), er.OK, er.Reason, ex.Len())
				}
				if k+1 == len(prefix) && (s.cutFed != len(prefix) || !sameStates(s.cutSt, map[adt.State]bool{"x": true, "y": true})) {
					t.Fatalf("after the prefix: cut after %d actions at %q, want after %d at [x y]", s.cutFed, s.cutSt, len(prefix))
				}
			}
			switch got := s.fast != nil; {
			case tc.want == exits && got:
				t.Fatal("stayed on the fast path")
			case tc.want != exits && (!got || s.Nodes() != s.Len()):
				t.Fatalf("left the fast path: %d nodes over %d actions", s.Nodes(), s.Len())
			case s.fastRej != (tc.want == rejects):
				t.Fatalf("the core rejected %v, want %v", s.fastRej, tc.want == rejects)
			}
		})
	}
}

// quiescentEvery100 streams n actions of a history with one quiescent
// point every 100 actions: client c0 holds one operation open across 96
// actions of sequential operations by c1 and then responds. The register
// holds a read open across fresh writes and reads; the mutex holds an
// acquire open across lock/unlock pairs, then releases; the stack holds a
// push open across push/pop pairs, then pops it; consensus holds a
// proposal open across proposals of the decided value.
func quiescentEvery100(f adt.Folder, n int, feed func(a trace.Action, quiescent bool)) {
	ok := adt.WriteOutput()
	pair := func(c trace.ClientID, in, out trace.Value) {
		feed(trace.Invoke(c, 1, in), false)
		feed(trace.Response(c, 1, in, out), false)
	}
	cur := adt.Bottom
	for b := 0; b < n/100; b++ {
		id := strconv.Itoa(b)
		var held, heldOut trace.Value
		var c1 func(u string)
		var last func()
		switch f.(type) {
		case adt.Register:
			held = adt.Tag(adt.ReadInput(), "h"+id)
			c1 = func(u string) {
				w := trace.Value("v" + u)
				pair("c1", adt.WriteInput(w), ok)
				cur = w
				pair("c1", adt.Tag(adt.ReadInput(), u), adt.ReadOutput(cur))
			}
			last = func() { pair("c0", adt.Tag(adt.ReadInput(), "t"+id), adt.ReadOutput(cur)) }
		case adt.Mutex:
			held, heldOut = adt.Tag(adt.LockInput(), "h"+id), ok
			c1 = func(u string) {
				pair("c1", adt.Tag(adt.LockInput(), u), ok)
				pair("c1", adt.Tag(adt.UnlockInput(), u), ok)
			}
			last = func() { pair("c0", adt.Tag(adt.UnlockInput(), "h"+id), ok) }
		case adt.Stack:
			held, heldOut = adt.PushInput(trace.Value("h"+id)), ok
			c1 = func(u string) {
				pair("c1", adt.PushInput(trace.Value("v"+u)), ok)
				pair("c1", adt.Tag(adt.PopInput(), u), adt.ReadOutput(trace.Value("v"+u)))
			}
			last = func() { pair("c0", adt.Tag(adt.PopInput(), "t"+id), adt.ReadOutput(trace.Value("h"+id))) }
		case adt.Consensus:
			held, heldOut = adt.Tag(adt.ProposeInput("a"), "h"+id), adt.DecideOutput("a")
			c1 = func(u string) {
				pair("c1", adt.Tag(adt.ProposeInput("a"), u), adt.DecideOutput("a"))
				pair("c1", adt.Tag(adt.ProposeInput("b"), u), adt.DecideOutput("a"))
			}
			last = func() { pair("c0", adt.Tag(adt.ProposeInput("b"), "t"+id), adt.DecideOutput("a")) }
		}
		feed(trace.Invoke("c0", 1, held), false)
		for i := 0; i < 24; i++ {
			c1(id + "." + strconv.Itoa(i))
		}
		if heldOut == "" {
			heldOut = adt.ReadOutput(cur)
		}
		feed(trace.Response("c0", 1, held, heldOut), true)
		last()
	}
}

// coreHeld is what a witness-off session's core holds, with the
// session's table of the inputs seen: table entries, slice lengths and
// map sizes (entries), and what its tables and slices have room for
// (room).
func coreHeld(s *Session) (entries, room int) {
	entries, room = s.seen.n, len(s.seen.slots)
	switch c := s.fast.(type) {
	case *fastRegister:
		entries += c.byVal.n + len(c.blocks) + len(c.closedAt) + len(c.closed) + c.tree.size + len(c.init)
		room += len(c.byVal.slots) + cap(c.blocks) + cap(c.closedAt) + cap(c.closed) + len(c.tree.node)
	case *fastMutex:
		for _, o := range c.ops {
			if o.in != "" { // open: a free record is emptied
				entries++
			}
		}
		entries += len(c.chain) + len(c.marks)
	case *fastStack:
		entries += len(c.ops) - len(c.free) + len(c.vals) + len(c.pool) + len(c.stack) + len(c.chain) + len(c.marks)
		room += cap(c.ops) + cap(c.pool) + cap(c.stack)
	case *fastConsensus:
		entries += len(c.props) + len(c.resps)
	}
	return entries, room
}

// TestCutRetention: a 10M-action register stream and 1M-action mutex,
// stack and consensus streams with a quiescent point every 100 actions
// stay on the fast path and, at every quiescent point, hold one log
// chunk of at most recChunk actions and no full chunk before it, and a
// core that restarted at the last cut (DESIGN.md, decision 35): no more
// table entries, slice elements and map entries than actions since that
// cut, plus two for the value a stack answer keeps (on the stack and
// among its values) or a register's (its initial value), and room
// for no more than sixteen times the longest stretch between cuts. The
// same streams with cuts off (20 000 actions) log all of it.
func TestCutRetention(t *testing.T) {
	for _, f := range []adt.Folder{adt.Register{}, adt.Mutex{}, adt.Stack{}, adt.Consensus{}} {
		for _, cuts := range []bool{true, false} {
			n := 1_000_000
			if _, reg := f.(adt.Register); reg {
				n = 10_000_000
			}
			s := NewSession(context.Background(), f, check.WithWitness(false))
			if !cuts {
				n = 20_000
				noCuts(s)
			}
			points, lastCut, longest := 0, 0, 0
			quiescentEvery100(f, n, func(a trace.Action, quiescent bool) {
				if err := s.Feed(a); err != nil {
					t.Fatal(err)
				}
				if s.cutFed != lastCut {
					longest = max(longest, s.cutFed-lastCut)
					lastCut = s.cutFed
				}
				if !quiescent {
					return
				}
				points++
				if !cuts {
					return
				}
				if cap(s.rec) > recChunk || len(s.recFull) != 0 {
					t.Fatalf("%T, quiescent point %d: log of %d full chunks and one of capacity %d",
						f, points, len(s.recFull), cap(s.rec))
				}
				since := s.Len() - s.cutFed
				if entries, room := coreHeld(s); entries > since+2 || room > 16*longest+64 {
					t.Fatalf("%T, quiescent point %d: the core holds %d entries with room for %d, %d actions after the last cut (%d at most)",
						f, points, entries, room, since, longest)
				}
			})
			if s.Len() != n || s.Nodes() != n || s.Verdict() != check.Linearizable {
				t.Fatalf("%T: %d nodes over %d actions, verdict %v: the stream left the fast path", f, s.Nodes(), s.Len(), s.Verdict())
			}
			held := len(s.rec)
			for _, c := range s.recFull {
				held += len(c)
			}
			switch {
			case cuts && (s.cutFed < n-recChunk-100 || held > recChunk+100):
				t.Fatalf("%T: last cut after %d actions, %d actions logged", f, s.cutFed, held)
			case !cuts && held != n:
				t.Fatalf("%T, cuts off: %d of %d actions logged", f, held, n)
			}
		}
	}
}

// TestCutStatesAllocateNothing: a cut's answer reuses the core's storage,
// and so does the restart that follows it — asked again at the same
// quiescent point, and only at one, as the cutter contract says.
func TestCutStatesAllocateNothing(t *testing.T) {
	for _, sc := range cutSims {
		s := NewSession(context.Background(), sc.f, check.WithWitness(false))
		tr := simHistory(rand.New(rand.NewSource(1)), sc.sim(), 64)
		quiescent := false
		for k, a := range tr {
			if err := s.Feed(a); err != nil {
				t.Fatal(err)
			}
			if s.fast == nil || s.fastRej {
				break
			}
			if quiescent = s.open == 0; quiescent && k >= 32 {
				break
			}
		}
		if !quiescent || s.fast == nil || s.fastRej {
			t.Fatalf("%s: the history reaches no quiescent point on the fast path", sc.name)
		}
		c := s.fast.(cutter)
		c.cutStates()
		if n := testing.AllocsPerRun(100, func() { c.cutStates() }); n != 0 {
			t.Errorf("%s: cutStates allocates %.0f times", sc.name, n)
		}
	}
}

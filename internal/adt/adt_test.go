package adt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/trace"
)

// TestFigure1ConsensusSpec checks the Figure 1 specification: in a
// sequential execution the first proposal wins and every later propose
// returns it.
func TestFigure1ConsensusSpec(t *testing.T) {
	c := Consensus{}
	h := trace.History{ProposeInput("a")}
	out, err := c.Apply(h)
	if err != nil {
		t.Fatal(err)
	}
	if out != DecideOutput("a") {
		t.Fatalf("first propose returned %q", out)
	}
	h = append(h, ProposeInput("b"), ProposeInput("c"))
	out, err = c.Apply(h)
	if err != nil {
		t.Fatal(err)
	}
	if out != DecideOutput("a") {
		t.Fatalf("later propose returned %q, want first value", out)
	}
}

func TestConsensusInputParsing(t *testing.T) {
	if v, ok := ProposalOf(ProposeInput("x")); !ok || v != "x" {
		t.Fatalf("ProposalOf round trip failed: %q %v", v, ok)
	}
	for _, bad := range []trace.Value{"d:x", "p:", "p:" + Bottom, "x", ""} {
		if _, ok := ProposalOf(bad); ok {
			t.Errorf("ProposalOf(%q) accepted", bad)
		}
	}
	if v, ok := DecisionOf(DecideOutput("y")); !ok || v != "y" {
		t.Fatalf("DecisionOf round trip failed: %q %v", v, ok)
	}
}

func TestApplyErrors(t *testing.T) {
	c := Consensus{}
	if _, err := c.Apply(nil); err == nil {
		t.Error("empty history must error")
	}
	if _, err := c.Apply(trace.History{"garbage"}); err == nil {
		t.Error("invalid input must error")
	}
	if _, err := c.Apply(trace.History{ProposeInput("a"), "garbage"}); err == nil {
		t.Error("invalid non-final input must error")
	}
}

func TestRegisterSemantics(t *testing.T) {
	r := Register{}
	tests := []struct {
		name string
		h    trace.History
		want trace.Value
	}{
		{"read empty", trace.History{ReadInput()}, ReadOutput(Bottom)},
		{"write", trace.History{WriteInput("a")}, WriteOutput()},
		{"read after write", trace.History{WriteInput("a"), ReadInput()}, ReadOutput("a")},
		{"last write wins", trace.History{WriteInput("a"), WriteInput("b"), ReadInput()}, ReadOutput("b")},
		{"read does not disturb", trace.History{WriteInput("a"), ReadInput(), ReadInput()}, ReadOutput("a")},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := r.Apply(tt.h)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("Apply(%v) = %q, want %q", tt.h, got, tt.want)
			}
		})
	}
}

func TestCounterSemantics(t *testing.T) {
	c := Counter{}
	h := trace.History{IncInput(), IncInput(), GetInput()}
	got, err := c.Apply(h)
	if err != nil {
		t.Fatal(err)
	}
	if got != CountOutput(2) {
		t.Fatalf("count = %q", got)
	}
	got, _ = c.Apply(trace.History{IncInput()})
	if got != CountOutput(1) {
		t.Fatalf("first inc = %q", got)
	}
}

func TestQueueSemantics(t *testing.T) {
	q := Queue{}
	tests := []struct {
		name string
		h    trace.History
		want trace.Value
	}{
		{"deq empty", trace.History{DeqInput()}, ReadOutput(Bottom)},
		{"fifo order", trace.History{EnqInput("a"), EnqInput("b"), DeqInput()}, ReadOutput("a")},
		{"second deq", trace.History{EnqInput("a"), EnqInput("b"), DeqInput(), DeqInput()}, ReadOutput("b")},
		{"drain then empty", trace.History{EnqInput("a"), DeqInput(), DeqInput()}, ReadOutput(Bottom)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := q.Apply(tt.h)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("Apply(%v) = %q, want %q", tt.h, got, tt.want)
			}
		})
	}
}

func TestUniversalIdentity(t *testing.T) {
	u := Universal{}
	h := trace.History{"a", "b", "c"}
	out, err := u.Apply(h)
	if err != nil {
		t.Fatal(err)
	}
	back, ok := OutputHistory(out)
	if !ok || !back.Equal(h) {
		t.Fatalf("universal output %q decodes to %v", out, back)
	}
	if _, ok := OutputHistory("not-a-history"); ok {
		t.Error("OutputHistory accepted a non-output")
	}
	if (Universal{}).ValidInput("h:a") {
		t.Error("outputs must not be valid inputs (I_T and O_T disjoint)")
	}
}

// universalSink keeps a measured Step's state on the heap, as a folded
// state is.
var universalSink State

// splitUniversalStep is the universal folder's Step and Out by way of
// the decoded history, the oracle of its in-place append.
func splitUniversalStep(s State, in trace.Value) State {
	h, _ := OutputHistory(trace.Value(s))
	return State(HistoryOutput(h.Append(in)))
}

// TestUniversalMatchesSplit: appending in place reaches the states and
// outputs of decoding, appending and encoding again, byte for byte, from
// the empty history and from states that are no universal output, on
// inputs that are empty or hold the separator; and it allocates once.
func TestUniversalMatchesSplit(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	u := Universal{}
	ins := []trace.Value{"a", "bc", "", universalSep, "x" + universalSep + "y", "h:", "h:a"}
	for walk := 0; walk < 200; walk++ {
		s := []State{u.Empty(), "", "h", "not-a-history", "h:" + universalSep}[r.Intn(5)]
		for step := 0; step < 20; step++ {
			in := ins[r.Intn(len(ins))]
			want := splitUniversalStep(s, in)
			if got := u.Out(s, in); got != trace.Value(want) {
				t.Fatalf("Out(%q, %q) = %q, want %q", s, in, got, want)
			}
			if got := u.Step(s, in); got != want {
				t.Fatalf("Step(%q, %q) = %q, want %q", s, in, got, want)
			}
			s = want
		}
	}
	s := Fold(u, trace.History{"a", "b"})
	if got := testing.AllocsPerRun(100, func() { universalSink = u.Step(s, "c") }); got != 1 {
		t.Errorf("Step: %.0f allocations, want 1", got)
	}
}

// folderADTs enumerates every Folder with a generator of random valid
// inputs, for the coherence property below.
var folderADTs = []struct {
	f   Folder
	gen func(r *rand.Rand) trace.Value
}{
	{Consensus{}, func(r *rand.Rand) trace.Value {
		return ProposeInput(trace.Value([]byte{byte('a' + r.Intn(3))}))
	}},
	{Register{}, func(r *rand.Rand) trace.Value {
		if r.Intn(2) == 0 {
			return ReadInput()
		}
		return WriteInput(trace.Value([]byte{byte('a' + r.Intn(3))}))
	}},
	{Counter{}, func(r *rand.Rand) trace.Value {
		if r.Intn(2) == 0 {
			return GetInput()
		}
		return IncInput()
	}},
	{Queue{}, func(r *rand.Rand) trace.Value {
		if r.Intn(2) == 0 {
			return DeqInput()
		}
		return EnqInput(trace.Value([]byte{byte('a' + r.Intn(3))}))
	}},
	{Universal{}, func(r *rand.Rand) trace.Value {
		return trace.Value([]byte{byte('a' + r.Intn(3))})
	}},
	{Mutex{}, func(r *rand.Rand) trace.Value {
		if r.Intn(2) == 0 {
			return LockInput()
		}
		return UnlockInput()
	}},
	{Stack{}, func(r *rand.Rand) trace.Value {
		if r.Intn(2) == 0 {
			return PopInput()
		}
		return PushInput(trace.Value([]byte{byte('a' + r.Intn(3))}))
	}},
	{Set{}, func(r *rand.Rand) trace.Value {
		v := trace.Value([]byte{byte('a' + r.Intn(3))})
		switch r.Intn(3) {
		case 0:
			return AddInput(v)
		case 1:
			return RemoveInput(v)
		default:
			return HasInput(v)
		}
	}},
}

// TestFolderCoherence checks the Folder laws: folding a history and asking
// for the next output agrees with Apply on the extended history, for every
// ADT and random histories. This is the property that lets checkers use
// states instead of histories.
func TestFolderCoherence(t *testing.T) {
	for _, entry := range folderADTs {
		entry := entry
		t.Run(entry.f.Name(), func(t *testing.T) {
			prop := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				h := trace.History{}
				s := entry.f.Empty()
				for i, n := 0, r.Intn(8); i < n; i++ {
					in := entry.gen(r)
					// Out on folded state must equal Apply on history.
					want, err := entry.f.Apply(h.Append(in))
					if err != nil {
						return false
					}
					if got := entry.f.Out(s, in); got != want {
						return false
					}
					h = h.Append(in)
					s = entry.f.Step(s, in)
					if s != Fold(entry.f, h) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestMutexSemantics(t *testing.T) {
	m := Mutex{}
	tests := []struct {
		name string
		h    trace.History
		want trace.Value
	}{
		{"lock free", trace.History{LockInput()}, WriteOutput()},
		{"relock held", trace.History{LockInput(), LockInput()}, ErrOutput("held")},
		{"unlock held", trace.History{LockInput(), UnlockInput()}, WriteOutput()},
		{"unlock free", trace.History{UnlockInput()}, ErrOutput("free")},
		{"illegal op leaves state", trace.History{LockInput(), LockInput(), UnlockInput()}, WriteOutput()},
		{"alternation", trace.History{LockInput(), UnlockInput(), LockInput()}, WriteOutput()},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := m.Apply(tt.h)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("Apply(%v) = %q, want %q", tt.h, got, tt.want)
			}
		})
	}
	if m.ValidInput("lock:x") {
		t.Error("lock with an argument must be invalid")
	}
	if !m.ValidInput(Tag(UnlockInput(), "7")) {
		t.Error("tagged unlock must stay valid")
	}
}

func TestStackSemantics(t *testing.T) {
	s := Stack{}
	tests := []struct {
		name string
		h    trace.History
		want trace.Value
	}{
		{"pop empty", trace.History{PopInput()}, ReadOutput(Bottom)},
		{"lifo order", trace.History{PushInput("a"), PushInput("b"), PopInput()}, ReadOutput("b")},
		{"second pop", trace.History{PushInput("a"), PushInput("b"), PopInput(), PopInput()}, ReadOutput("a")},
		{"drain then empty", trace.History{PushInput("a"), PopInput(), PopInput()}, ReadOutput(Bottom)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := s.Apply(tt.h)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("Apply(%v) = %q, want %q", tt.h, got, tt.want)
			}
		})
	}
	if s.ValidInput(PushInput(Bottom)) || s.ValidInput("pop:x") {
		t.Error("grammar-invalid stack inputs accepted")
	}
}

func TestSetSemantics(t *testing.T) {
	s := Set{}
	tests := []struct {
		name string
		h    trace.History
		want trace.Value
	}{
		{"has empty", trace.History{HasInput("a")}, BoolOutput(false)},
		{"fresh add", trace.History{AddInput("a")}, BoolOutput(true)},
		{"duplicate add", trace.History{AddInput("a"), AddInput("a")}, BoolOutput(false)},
		{"has member", trace.History{AddInput("a"), HasInput("a")}, BoolOutput(true)},
		{"has other", trace.History{AddInput("a"), HasInput("b")}, BoolOutput(false)},
		{"remove member", trace.History{AddInput("a"), RemoveInput("a")}, BoolOutput(true)},
		{"remove absent", trace.History{RemoveInput("a")}, BoolOutput(false)},
		{"re-add after remove", trace.History{AddInput("a"), RemoveInput("a"), AddInput("a")}, BoolOutput(true)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := s.Apply(tt.h)
			if err != nil {
				t.Fatal(err)
			}
			if got != tt.want {
				t.Errorf("Apply(%v) = %q, want %q", tt.h, got, tt.want)
			}
		})
	}
	// State canonicality: insertion order must not matter.
	h1 := trace.History{AddInput("b"), AddInput("a"), AddInput("c")}
	h2 := trace.History{AddInput("c"), AddInput("a"), AddInput("b")}
	if Fold(s, h1) != Fold(s, h2) {
		t.Fatal("set states must be insertion-order canonical")
	}
}

// Histories with the same first proposal are equivalent for consensus
// (§2.3): they fold to the same state.
func TestConsensusEquivalentHistories(t *testing.T) {
	c := Consensus{}
	h1 := trace.History{ProposeInput("v"), ProposeInput("a")}
	h2 := trace.History{ProposeInput("v"), ProposeInput("b"), ProposeInput("c")}
	if Fold(c, h1) != Fold(c, h2) {
		t.Fatal("histories with equal first proposal must fold equal")
	}
	h3 := trace.History{ProposeInput("w")}
	if Fold(c, h1) == Fold(c, h3) {
		t.Fatal("histories with different first proposals must fold differently")
	}
}

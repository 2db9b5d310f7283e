package adt

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/trace"
)

// splitContainerStep is the queue and stack codec Step and Out replaced:
// split the state into its elements, edit the slice at the front (queue)
// or back (stack), join it again.
func splitContainerStep(lifo bool, s State, in trace.Value) (State, trace.Value) {
	op, arg, _ := split2(Untag(in))
	var elems []string
	if s != "" {
		elems = strings.Split(string(s), "\x00")
	}
	out := WriteOutput()
	switch op {
	case "enq", "push":
		elems = append(elems, arg)
	case "deq", "pop":
		out = ReadOutput(Bottom)
		if n := len(elems); n > 0 {
			if lifo {
				out, elems = ReadOutput(elems[n-1]), elems[:n-1]
			} else {
				out, elems = ReadOutput(elems[0]), elems[1:]
			}
		}
	}
	return State(strings.Join(elems, "\x00")), out
}

// TestContainerCodecMatchesSplit: the in-place queue and stack codecs
// reach the very states, byte for byte, and the outputs of the
// split-and-join one on random walks whose values include the empty
// string and values holding NUL bytes, which the split codec reads as
// several elements.
func TestContainerCodecMatchesSplit(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	vals := []trace.Value{"a", "ab", "", "\x00", "x\x00y", "b\x00", "\x00c"}
	for _, c := range []struct {
		f         Folder
		lifo      bool
		put, take func(trace.Value) trace.Value
	}{
		{Queue{}, false, EnqInput, func(trace.Value) trace.Value { return DeqInput() }},
		{Stack{}, true, PushInput, func(trace.Value) trace.Value { return PopInput() }},
	} {
		for walk := 0; walk < 300; walk++ {
			s := c.f.Empty()
			for step := 0; step < 30; step++ {
				in := c.take("")
				if r.Intn(2) == 0 {
					in = c.put(vals[r.Intn(len(vals))])
				}
				in = Tag(in, "t")
				want, wantOut := splitContainerStep(c.lifo, s, in)
				if got := c.f.Out(s, in); got != wantOut {
					t.Fatalf("%s Out(%q, %q) = %q, want %q", c.f.Name(), s, in, got, wantOut)
				}
				if got := c.f.Step(s, in); got != want {
					t.Fatalf("%s Step(%q, %q) = %q, want %q", c.f.Name(), s, in, got, want)
				}
				s = want
			}
		}
	}
}

// TestContainerCodecAllocs pins what the in-place codecs cost: a dequeue
// or pop cuts the state where it lies, Out reads the front or top there
// and allocates only the "v:x" output it returns (none on an empty
// container), and an enqueue or push builds the longer state in one
// allocation.
func TestContainerCodecAllocs(t *testing.T) {
	for _, c := range []struct {
		f         Folder
		put, take trace.Value
	}{
		{Queue{}, EnqInput("e9"), DeqInput()},
		{Stack{}, PushInput("e9"), PopInput()},
	} {
		s := c.f.Empty()
		for _, v := range []trace.Value{"e0", "e1", "e2"} {
			s = c.f.Step(s, Tag(c.put[:strings.IndexByte(c.put, ':')+1]+v, "1"))
		}
		put, take := Tag(c.put, "7"), Tag(c.take, "8")
		for _, m := range []struct {
			name   string
			run    func()
			allocs float64
		}{
			{"out", func() { _ = c.f.Out(s, take) }, 1},
			{"out empty", func() { _ = c.f.Out(c.f.Empty(), take) }, 0},
			{"take", func() { _ = c.f.Step(s, take) }, 0},
			{"put", func() { _ = c.f.Step(s, put) }, 1},
		} {
			if got := testing.AllocsPerRun(100, m.run); got != m.allocs {
				t.Errorf("%s %s: %.0f allocations, want %.0f", c.f.Name(), m.name, got, m.allocs)
			}
		}
	}
}

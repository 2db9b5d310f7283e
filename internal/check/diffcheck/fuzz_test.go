package diffcheck

import (
	"context"
	"errors"
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/slin"
	"repro/internal/trace"
	"repro/internal/workload"
)

// fuzzADT selects the ADT (and its input/plausible-output pools) a fuzz
// input is decoded against.
func fuzzADT(sel uint8) (adt.Folder, []trace.Value, []trace.Value) {
	switch sel % 3 {
	case 0:
		return adt.Consensus{},
			[]trace.Value{adt.ProposeInput("a"), adt.ProposeInput("b")},
			[]trace.Value{adt.DecideOutput("a"), adt.DecideOutput("b")}
	case 1:
		return adt.Register{},
			[]trace.Value{adt.WriteInput("x"), adt.WriteInput("y"), adt.ReadInput()},
			[]trace.Value{adt.WriteOutput(), adt.ReadOutput(adt.Bottom), adt.ReadOutput("x"), adt.ReadOutput("y")}
	default:
		return adt.Counter{},
			[]trace.Value{adt.IncInput(), adt.GetInput()},
			[]trace.Value{adt.CountOutput(0), adt.CountOutput(1), adt.CountOutput(2)}
	}
}

// decodeTrace turns fuzz bytes into a trace: two bytes per action over
// three clients. Responses usually answer the client's pending
// invocation (reaching deep search states) but may deliberately
// mismatch, and outputs are drawn from a plausible pool — so the decoded
// corpus mixes well-formed linearizable, well-formed corrupted and
// ill-formed traces, exactly the shapes the checkers classify
// differently. The action count is capped so exhaustive searches stay
// within fuzz-friendly budgets.
//
// With m == 0 the trace is switch-free in phase 1, for the Lin targets.
// With m ≥ 1 it lives in sig(m, m+1) for the SLin target: when m > 1 a
// client's first operation enters by an init action, and a response byte
// whose output byte has its top bit set aborts the pending operation to
// phase m+1 instead; switch values are drawn from slinValues.
func decodeTrace(inputs, outputs []trace.Value, data []byte, m int) trace.Trace {
	clients := []trace.ClientID{"c1", "c2", "c3"}
	pending := map[trace.ClientID]trace.Value{}
	started := map[trace.ClientID]bool{}
	phase := max(m, 1)
	var tr trace.Trace
	for i := 0; i+1 < len(data) && len(tr) < 14; i += 2 {
		b, o := data[i], data[i+1]
		c := clients[int(b&3)%len(clients)]
		value := slinValues[int(o>>1)%len(slinValues)]
		if (b>>2)&1 == 0 {
			in := inputs[int(b>>3)%len(inputs)]
			if b&0x80 != 0 {
				in = adt.Tag(in, strconv.Itoa(i))
			}
			if m > 1 && !started[c] {
				tr = append(tr, trace.Switch(c, m, in, value))
			} else {
				tr = append(tr, trace.Invoke(c, phase, in))
			}
			started[c] = true
			pending[c] = in
		} else {
			in, ok := pending[c]
			if !ok || o&1 == 1 {
				in = inputs[int(b>>3)%len(inputs)]
			}
			if m > 0 && o&0x80 != 0 {
				tr = append(tr, trace.Switch(c, m+1, in, value))
			} else {
				tr = append(tr, trace.Response(c, phase, in, outputs[int(o>>1)%len(outputs)]))
			}
			delete(pending, c)
		}
	}
	return tr
}

// fuzzBudget keeps a single fuzz execution cheap; inputs whose searches
// exceed it are skipped, not failed (budget exhaustion yields Unknown on
// every engine, which the dedicated budget tests pin).
const fuzzBudget = 200_000

// corpusSeeds are hand-encoded corpus traces: concurrent invocations
// followed by split decisions (the hard exhaustive shape), sequential
// invoke/respond pairs, tagged repeats, and an ill-formed response
// prefix.
func corpusSeeds(f *testing.F) {
	f.Add(uint8(0), []byte{0x00, 0x00, 0x01, 0x00, 0x02, 0x00, 0x04, 0x00, 0x05, 0x02, 0x06, 0x04})
	f.Add(uint8(0), []byte{0x80, 0x00, 0x81, 0x00, 0x82, 0x00, 0x84, 0x00, 0x85, 0x02, 0x86, 0x02})
	f.Add(uint8(1), []byte{0x00, 0x00, 0x04, 0x00, 0x09, 0x00, 0x0d, 0x02, 0x12, 0x00, 0x16, 0x04})
	f.Add(uint8(1), []byte{0x04, 0x06, 0x00, 0x00, 0x04, 0x02})
	f.Add(uint8(2), []byte{0x00, 0x00, 0x01, 0x00, 0x04, 0x02, 0x05, 0x04, 0x88, 0x00, 0x8c, 0x00})
	f.Add(uint8(2), []byte{0x0c, 0x01, 0x0c, 0x03})
}

// FuzzCheckPORAgreement fuzzes the Lin matrix (the name predates
// decision 21): one-shot, online and chain-free runs of the lin engine
// and the reference, slin(1,2) and classical oracles must agree on every
// decodable trace.
func FuzzCheckPORAgreement(f *testing.F) {
	corpusSeeds(f)
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		folder, inputs, outputs := fuzzADT(sel)
		tr := decodeTrace(inputs, outputs, data, 0)
		err := Lin(context.Background(), folder, tr, check.WithBudget(fuzzBudget))
		if err == nil {
			return
		}
		var d *Disagreement
		if errors.As(err, &d) {
			t.Fatal(err)
		}
		t.Skip() // budget exhaustion: nothing to compare
	})
}

// FuzzSessionPrefixAgreement fuzzes the incremental engine: the session
// verdict after every fed prefix must equal the one-shot verdict of that
// prefix.
func FuzzSessionPrefixAgreement(f *testing.F) {
	corpusSeeds(f)
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		folder, inputs, outputs := fuzzADT(sel)
		tr := decodeTrace(inputs, outputs, data, 0)
		err := LinPrefixes(context.Background(), folder, tr, check.WithBudget(fuzzBudget))
		if err == nil {
			return
		}
		var d *Disagreement
		if errors.As(err, &d) {
			t.Fatal(err)
		}
		t.Skip()
	})
}

// The SLin target's pools: consensus over three values, proposals and
// decisions of each, and the values themselves as switch values.
var (
	slinValues  = []trace.Value{"a", "b", "c"}
	slinInputs  = []trace.Value{adt.ProposeInput("a"), adt.ProposeInput("b"), adt.ProposeInput("c")}
	slinOutputs = []trace.Value{adt.DecideOutput("a"), adt.DecideOutput("b"), adt.DecideOutput("c")}
)

// orderSensitive strips ConsensusRInit's OrderInsensitive declaration
// (embedding an interface promotes only RInit's methods), so the target
// also runs the path where an abort switches the session to the
// positional identity.
type orderSensitive struct{ slin.RInit }

// slinFuzzSpec decodes the SLin target's selector: bit 0 picks the
// second phase (m = 2, with init actions) over the first, bit 1 probe
// representatives, bit 2 an order-sensitive relation.
func slinFuzzSpec(sel uint8) (slin.RInit, int) {
	var rinit slin.RInit = slin.ConsensusRInit{Probe: sel&2 != 0}
	if sel&4 != 0 {
		rinit = orderSensitive{rinit}
	}
	return rinit, 1 + int(sel&1)
}

// encodeTrace is decodeTrace's inverse on consensus traces of at most
// three clients and three values, up to renaming: clients and values are
// numbered by first appearance, and a tagged input decodes with a fresh
// tag per invocation. Each byte is the first that decodes as wanted.
func encodeTrace(f *testing.F, tr trace.Trace, m int) []byte {
	clients := map[trace.ClientID]int{}
	values := map[trace.Value]int{}
	num := func(v trace.Value) int {
		if _, ok := values[v]; !ok {
			values[v] = len(values)
		}
		return values[v]
	}
	find := func(ok func(x int) bool) byte {
		for x := 0; x < 256; x++ {
			if ok(x) {
				return byte(x)
			}
		}
		f.Fatalf("encodeTrace: no byte for %v", tr)
		return 0
	}
	var data []byte
	for _, a := range tr {
		if _, ok := clients[a.Client]; !ok {
			clients[a.Client] = len(clients)
		}
		c := clients[a.Client]
		var b, o byte
		switch {
		case a.Kind == trace.Inv || a.IsInit(m):
			v, _ := adt.ProposalOf(adt.Untag(a.Input))
			in, tagged := num(v), adt.Untag(a.Input) != a.Input
			b = find(func(x int) bool { return x&3 == c && x&4 == 0 && (x>>3)%3 == in && (x&0x80 != 0) == tagged })
			if a.Kind == trace.Swi {
				sv := num(a.SwitchValue)
				o = find(func(x int) bool { return (x>>1)%3 == sv })
			}
		case a.Kind == trace.Res:
			v, _ := adt.DecisionOf(a.Output)
			out := num(v)
			b = find(func(x int) bool { return x&3 == c && x&4 != 0 })
			o = find(func(x int) bool { return x&1 == 0 && x&0x80 == 0 && (x>>1)%3 == out })
		default: // abort
			sv := num(a.SwitchValue)
			b = find(func(x int) bool { return x&3 == c && x&4 != 0 })
			o = find(func(x int) bool { return x&1 == 0 && x&0x80 != 0 && (x>>1)%3 == sv })
		}
		data = append(data, b, o)
	}
	if len(clients) > 3 || len(values) > 3 {
		f.Fatalf("encodeTrace: %d clients, %d values in %v", len(clients), len(values), tr)
	}
	return data
}

// FuzzSLinAgreement fuzzes the SLin engine matrix (one-shot and online)
// against the string-keyed reference under both Abort-Order readings;
// under -tags memocheck it also fails on any digest collision. The
// corpus holds E6b's two schedule families (seed 9, as the experiment
// draws them), second phases, and the identity's abort fixtures:
// commuting same-value proposals with one abort, and a split decision
// beside an aborting client — each under the order-insensitive and the
// order-sensitive relation.
func FuzzSLinAgreement(f *testing.F) {
	for _, noLateOps := range []bool{true, false} {
		r := rand.New(rand.NewSource(9))
		for i := 0; i < 4; i++ {
			tr := workload.FirstPhase(r, workload.PhaseOpts{Clients: 3, NoLateOps: noLateOps})
			f.Add(uint8(0), encodeTrace(f, tr, 1))
		}
	}
	r := rand.New(rand.NewSource(5151))
	for i := 0; i < 2; i++ {
		f.Add(uint8(1), encodeTrace(f, workload.SecondPhase(r, 2, workload.PhaseOpts{}), 2))
	}
	commuting := trace.Trace{
		trace.Invoke("p0", 1, adt.Tag(adt.ProposeInput("a"), "p0")),
		trace.Invoke("p1", 1, adt.Tag(adt.ProposeInput("a"), "p1")),
		trace.Invoke("p2", 1, adt.Tag(adt.ProposeInput("a"), "p2")),
		trace.Response("p0", 1, adt.Tag(adt.ProposeInput("a"), "p0"), adt.DecideOutput("a")),
		trace.Response("p1", 1, adt.Tag(adt.ProposeInput("a"), "p1"), adt.DecideOutput("a")),
		trace.Switch("p2", 2, adt.Tag(adt.ProposeInput("a"), "p2"), "a"),
	}
	splitAbort := append(workload.SplitDecision(2, "p"),
		trace.Invoke("pa", 1, adt.Tag(adt.ProposeInput("v0"), "pa")),
		trace.Switch("pa", 2, adt.Tag(adt.ProposeInput("v0"), "pa"), "v0"))
	for _, tr := range []trace.Trace{commuting, splitAbort} {
		f.Add(uint8(0), encodeTrace(f, tr, 1))
		f.Add(uint8(4), encodeTrace(f, tr, 1))
	}
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		rinit, m := slinFuzzSpec(sel)
		tr := decodeTrace(slinInputs, slinOutputs, data, m)
		for _, temporal := range []bool{false, true} {
			err := SLin(context.Background(), adt.Consensus{}, rinit, m, m+1, tr, temporal,
				check.WithBudget(fuzzBudget))
			if n := slin.MemoCollisions(); n != 0 {
				t.Fatalf("%d digest collisions", n)
			}
			if err == nil {
				continue
			}
			var d *Disagreement
			if errors.As(err, &d) {
				t.Fatal(err)
			}
			t.Skip()
		}
	})
}

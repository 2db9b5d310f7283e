package diffcheck

import (
	"context"
	"errors"
	"strconv"
	"testing"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/trace"
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
func decodeTrace(f adt.Folder, inputs, outputs []trace.Value, data []byte) trace.Trace {
	clients := []trace.ClientID{"c1", "c2", "c3"}
	pending := map[trace.ClientID]trace.Value{}
	var tr trace.Trace
	for i := 0; i+1 < len(data) && len(tr) < 14; i += 2 {
		b, o := data[i], data[i+1]
		c := clients[int(b&3)%len(clients)]
		if (b>>2)&1 == 0 {
			in := inputs[int(b>>3)%len(inputs)]
			if b&0x80 != 0 {
				in = adt.Tag(in, strconv.Itoa(i))
			}
			tr = append(tr, trace.Invoke(c, 1, in))
			pending[c] = in
		} else {
			in, ok := pending[c]
			if !ok || o&1 == 1 {
				in = inputs[int(b>>3)%len(inputs)]
			}
			tr = append(tr, trace.Response(c, 1, in, outputs[int(o>>1)%len(outputs)]))
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
// decision 21): one-shot, online and uncompacted runs of the lin engine
// and the reference, slin(1,2) and classical oracles must agree on every
// decodable trace.
func FuzzCheckPORAgreement(f *testing.F) {
	corpusSeeds(f)
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		folder, inputs, outputs := fuzzADT(sel)
		tr := decodeTrace(folder, inputs, outputs, data)
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

// FuzzCompactionVsExact fuzzes the frontier-compaction axis (DESIGN.md,
// decision 17): the compacted streaming session must agree with the
// uncompacted reference session after every fed action and with the
// one-shot engine at a mid-stream drain and at the end, and drained
// compacted witnesses must verify.
func FuzzCompactionVsExact(f *testing.F) {
	corpusSeeds(f)
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		folder, inputs, outputs := fuzzADT(sel)
		tr := decodeTrace(folder, inputs, outputs, data)
		err := Compaction(context.Background(), folder, tr, []int{len(tr) / 2},
			check.WithBudget(fuzzBudget))
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

// FuzzSessionPrefixAgreement fuzzes the incremental engine: the session
// verdict after every fed prefix must equal the one-shot verdict of that
// prefix.
func FuzzSessionPrefixAgreement(f *testing.F) {
	corpusSeeds(f)
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		folder, inputs, outputs := fuzzADT(sel)
		tr := decodeTrace(folder, inputs, outputs, data)
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

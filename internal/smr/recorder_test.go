package smr

import (
	"testing"

	"repro/internal/check"
	"repro/internal/msgnet"
)

// recorderRig drives one shard's recorder by hand, without a network
// run: two clients, c1 and c2, and the slots decided in order.
type recorderRig struct {
	sc   *ShardedCluster
	rec  *shardRecorder
	slot int
}

func newRecorderRig(t *testing.T) *recorderRig {
	w := msgnet.New(msgnet.Config{Seed: 1, MinDelay: 1, MaxDelay: 2})
	sc, err := BuildSharded(w, ids("c", 2), ids("s", 3), ShardedConfig{Shards: 1, OnlineCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	return &recorderRig{sc: sc, rec: sc.recs[0]}
}

// start submits cmd and starts it at client c.
func (r *recorderRig) start(c msgnet.ProcID, cmd Command) {
	r.rec.submit(cmd)
	r.rec.start(c, cmd, 0)
}

// decide has every client learn cmd in the next slot, and returns it.
func (r *recorderRig) decide(cmd Command) int {
	for _, c := range r.sc.clients {
		r.rec.learn(c, r.slot, cmd)
	}
	r.slot++
	return r.slot - 1
}

// land lands client c's submission in slot.
func (r *recorderRig) land(c msgnet.ProcID, slot int) {
	r.rec.land(SubmitResult{Client: c, Slot: slot})
}

// TestRecorderIllFormed: the recorder answers each response through its
// client's open handle, and an event that breaks a client's alternation
// makes the history of the event's key NotLinearizable — a start while
// the client's slot is open (on the same key or another), a response with
// none open, a response whose replayed input is not the open one's —
// while the other keys stay Linearizable: client c2's write on z stays
// open across the case and lands after it. The offending key is the last
// one the case sees, so the report naming it (the first refused history
// in first-seen order) clears every other key. (Mutants: the response
// goes through the neighbouring client's handle; the input-identity check
// skipped; a start overwrites an open slot.)
func TestRecorderIllFormed(t *testing.T) {
	const c1, c2 = msgnet.ProcID("c1"), msgnet.ProcID("c2")
	a, b := SetCmd("k0", "a"), SetCmd("k0", "b")
	c := SetCmd("k1", "c")
	for _, tc := range []struct {
		name string
		run  func(r *recorderRig)
		key  string // "" for a well-formed case
	}{
		{"well-formed", func(r *recorderRig) { r.start(c1, a); r.land(c1, r.decide(a)) }, ""},
		{"start while open", func(r *recorderRig) { r.start(c1, a); r.start(c1, b) }, "k0"},
		{"start while open on another key", func(r *recorderRig) { r.start(c1, a); r.start(c1, c) }, "k1"},
		{"response without start", func(r *recorderRig) { r.rec.submit(a); r.land(c1, r.decide(a)) }, "k0"},
		{"response with another input", func(r *recorderRig) {
			r.start(c1, a)
			r.rec.submit(b)
			r.land(c1, r.decide(b))
		}, "k0"},
		{"response with another key's input", func(r *recorderRig) {
			r.start(c1, a)
			r.rec.submit(c)
			r.land(c1, r.decide(c))
		}, "k1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRecorderRig(t)
			z := SetCmd("z", "y")
			r.start(c2, z)
			tc.run(r)
			r.land(c2, r.decide(z))
			if r.rec.err != nil {
				t.Fatal(r.rec.err)
			}
			rep := r.sc.hist.Report()
			if tc.key == "" {
				if rep.Verdict != check.Linearizable || rep.Ops != 2 {
					t.Fatalf("report %+v, want both writes linearizable", rep)
				}
				return
			}
			if rep.Verdict != check.NotLinearizable || rep.Key != tc.key || rep.Reason != "trace is not well-formed" {
				t.Fatalf("report %+v, want key %s not well-formed and z linearizable", rep, tc.key)
			}
		})
	}
}

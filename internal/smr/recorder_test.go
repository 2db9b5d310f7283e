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
	return &recorderRig{sc: sc, rec: sc.shards[0].rec}
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

// TestRecorderFreesReplayedSlots: after a run of kvShape (compaction on,
// so idle clients keep learning through gossip) the eight recorders keep
// a slotVal/learns entry only for slots some client has yet to learn or
// the recorder has yet to replay — a count that does not grow with the
// run — and nothing in pending (freed at replay) or slotOut (freed at
// landing). subSlot, one entry per submitted command, is not asserted:
// it grows with the run (ROADMAP item 14).
func TestRecorderFreesReplayedSlots(t *testing.T) {
	const slotValBound = 256
	for _, n := range []int{3_000, 12_000, 48_000} {
		_, sc, _ := kvShape(t, kvFeeds(n))
		if err := sc.CheckConsistency(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		var slotVal, learns, pending, slotOut, subSlot int
		for _, sh := range sc.shards {
			rec := sh.rec
			subSlot += len(rec.subSlot)
			slotVal += len(rec.slotVal)
			learns += len(rec.learns)
			pending += len(rec.pending)
			slotOut += len(rec.slotOut)
		}
		t.Logf("n=%d: slotVal %d, learns %d, pending %d, slotOut %d (subSlot %d)", n, slotVal, learns, pending, slotOut, subSlot)
		if slotVal > slotValBound || learns > slotValBound {
			t.Errorf("n=%d: %d slotVal and %d learns entries retained, bound %d", n, slotVal, learns, slotValBound)
		}
		if pending != 0 || slotOut != 0 {
			t.Errorf("n=%d: %d pending and %d slotOut entries retained, want 0", n, pending, slotOut)
		}
	}
}

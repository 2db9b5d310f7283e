package smr

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/msgnet"
)

// recorderRig drives one shard's recorder by hand, without a network
// run: two clients, 0 and 1 (c1 and c2), client i owning the slots ≡ i
// (mod 2), and the slots decided in order.
type recorderRig struct {
	sc   *ShardedCluster
	rec  *shardRecorder
	slot int // the lowest slot not decided yet
}

func newRecorderRig(t *testing.T) *recorderRig {
	w := msgnet.New(msgnet.Config{Seed: 1, MinDelay: 1, MaxDelay: 2})
	sc, err := BuildSharded(w, ids("c", 2), ids("s", 3), ShardedConfig{Shards: 1, OnlineCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	return &recorderRig{sc: sc, rec: sc.shards[0].rec}
}

// submit notes cmd as client i's latest submission, as client.enqueue
// does; start reports client i starting cmd; open does both.
func (r *recorderRig) submit(i int, cmd Command) { r.rec.submit(i, cmd) }
func (r *recorderRig) start(i int, cmd Command)  { r.rec.start(i, cmd, 0) }
func (r *recorderRig) open(i int, cmd Command)   { r.submit(i, cmd); r.start(i, cmd) }

// decideAt has every client learn cmd in slot, and the no-op in the
// undecided slots below it, and returns slot.
func (r *recorderRig) decideAt(slot int, cmd Command) int {
	for ; r.slot <= slot; r.slot++ {
		v := noop
		if r.slot == slot {
			v = cmd
		}
		for range r.sc.clients {
			r.rec.learn(r.slot, v)
		}
	}
	return slot
}

// decide decides cmd in client i's lowest owned slot not decided yet.
func (r *recorderRig) decide(i int, cmd Command) int {
	n := len(r.sc.clients)
	return r.decideAt(r.slot+((i-r.slot)%n+n)%n, cmd)
}

// land lands client i's submission in slot.
func (r *recorderRig) land(i, slot int) {
	r.rec.land(i, SubmitResult{Client: r.sc.clients[i], Slot: slot})
}

// TestRecorderIllFormed: the recorder answers each response through its
// client's open handle, and an event that breaks a client's alternation
// makes the history of the event's key NotLinearizable — a start while
// the client's slot is open (on the same key or another), a response with
// none open, a response whose replayed input is not the open one's —
// while the other keys stay Linearizable: client c2's write on z stays
// open across the case and lands after it. The offending key is the last
// one the case sees, so the report naming it (the first refused history
// in first-seen order) clears every other key. Every command decides in
// a slot its submitter owns, so the submission check passes throughout.
// (Mutants: the response goes through the neighbouring client's handle;
// the input-identity check skipped; a start overwrites an open slot.)
func TestRecorderIllFormed(t *testing.T) {
	const c1, c2 = 0, 1
	a, b := SetCmd("k0", "a"), SetCmd("k0", "b")
	c := SetCmd("k1", "c")
	for _, tc := range []struct {
		name string
		run  func(r *recorderRig)
		key  string // "" for a well-formed case
	}{
		{"well-formed", func(r *recorderRig) { r.open(c1, a); r.land(c1, r.decide(c1, a)) }, ""},
		{"start while open", func(r *recorderRig) { r.open(c1, a); r.open(c1, b) }, "k0"},
		{"start while open on another key", func(r *recorderRig) { r.open(c1, a); r.open(c1, c) }, "k1"},
		{"response without start", func(r *recorderRig) { r.submit(c1, a); r.land(c1, r.decide(c1, a)) }, "k0"},
		{"response with another input", func(r *recorderRig) {
			r.start(c1, a)
			r.submit(c1, b)
			r.land(c1, r.decide(c1, b))
		}, "k0"},
		{"response with another key's input", func(r *recorderRig) {
			r.start(c1, a)
			r.submit(c1, c)
			r.land(c1, r.decide(c1, c))
		}, "k1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRecorderRig(t)
			z := SetCmd("z", "y")
			r.open(c2, z)
			tc.run(r)
			r.land(c2, r.decide(c2, z))
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

// TestRecorderOwnershipIdentity: the first learn of a slot that is not
// the no-op must be of the oldest undecided submission of the slot's
// owner (decision 30), and the recorder fails naming the slot and the
// command otherwise. Each case breaks one part of that, with the owner's
// queue left non-empty where an empty one would fail on its own.
// (Mutants: an empty queue passes; any client's head may match; a
// decided command stays at its queue's head; any queued command of the
// owner may match.)
func TestRecorderOwnershipIdentity(t *testing.T) {
	const c1, c2 = 0, 1
	a, b := SetCmd("k0", "a"), SetCmd("k0", "b")
	for _, tc := range []struct {
		name string
		cmd  Command                  // the offending command
		run  func(r *recorderRig) int // its slot
	}{
		{"unsubmitted", a, func(r *recorderRig) int { return r.decide(c1, a) }},
		{"another client's slot", a, func(r *recorderRig) int {
			r.open(c1, b)
			r.open(c2, a)
			return r.decide(c1, a)
		}},
		{"landed command decided again", a, func(r *recorderRig) int {
			r.open(c1, a)
			r.submit(c1, b)
			r.land(c1, r.decide(c1, a))
			return r.decide(c1, a)
		}},
		{"second submission decided first", b, func(r *recorderRig) int {
			r.open(c1, a)
			r.submit(c1, b)
			return r.decide(c1, b)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRecorderRig(t)
			slot := tc.run(r)
			err := r.rec.err
			if err == nil {
				t.Fatalf("slot %d: no error", slot)
			}
			if msg := err.Error(); !strings.HasPrefix(msg, fmt.Sprintf("slot %d decided %q,", slot, tc.cmd)) {
				t.Fatalf("error %q, want slot %d and command %q named", msg, slot, tc.cmd)
			}
		})
	}
}

// TestRecorderFreesReplayedSlots: after a run of kvShape (compaction on,
// so idle clients keep learning through gossip) the eight recorders' slot
// windows together span only the slots some client has yet to learn — a
// count that does not grow with the run — and every slot in them has
// replayed and landed, while every client's submission queue is empty:
// each submission was decided and claimed.
func TestRecorderFreesReplayedSlots(t *testing.T) {
	const spanBound = 256 // slots, across the eight windows
	for _, n := range []int{3_000, 12_000, 48_000} {
		_, sc, _ := kvShape(t, kvFeeds(n))
		if err := sc.CheckConsistency(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		span := 0
		for _, sh := range sc.shards {
			rec := sh.rec
			span += rec.slots.hi - rec.slots.lo
			for i, q := range rec.subs {
				if q.lo != q.hi {
					t.Errorf("n=%d shard %d: client %d has %d submissions undecided", n, sh.id, i, q.hi-q.lo)
				}
			}
			if rec.applied < rec.slots.hi {
				t.Errorf("n=%d shard %d: slots %d to %d not replayed", n, sh.id, rec.applied, rec.slots.hi-1)
			}
			for s := rec.slots.lo; s < rec.slots.hi; s++ {
				if st := rec.slots.get(s).stage; st != slotDone {
					t.Errorf("n=%d shard %d: slot %d retained at stage %d, want %d (done)", n, sh.id, s, st, slotDone)
				}
			}
		}
		t.Logf("n=%d: the windows span %d slots (bound %d)", n, span, spanBound)
		if span > spanBound {
			t.Errorf("n=%d: the windows span %d slots, bound %d", n, span, spanBound)
		}
	}
}

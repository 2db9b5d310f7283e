package msgnet

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// A cancel of a name the node holds no bookkeeping for must create none:
// an entry made by CancelTimer is one that nothing ever uses (Quorum
// cancels "retransmit" on every proposal whether or not it armed it).
func TestCancelOfUnarmedTimerKeepsNoBookkeeping(t *testing.T) {
	w := New(Config{Seed: 1})
	a := &pingPong{}
	n := w.AddNode("a", a)
	w.At(0, func() {
		n.CancelTimer("never-armed")
		if got := n.TimerNames(); got != 0 {
			t.Errorf("cancel of a never-armed name left %d names", got)
		}
		// An armed name is still cancelled — and a cancelled one re-arms.
		n.SetTimer("armed", 5)
		n.CancelTimer("armed")
		n.SetTimer("rearmed", 5)
		n.CancelTimer("rearmed")
		n.SetTimer("rearmed", 7)
		if got := n.TimerNames(); got != 2 {
			t.Errorf("TimerNames() = %d, want 2 (armed, rearmed)", got)
		}
	})
	w.Crash("a", 20)
	w.Restart("a", 30)
	w.At(30, func() {
		n.CancelTimer("armed") // armed before the crash: bookkeeping is gone
		if got := n.TimerNames(); got != 0 {
			t.Errorf("cancel after a crash left %d names", got)
		}
	})
	w.Run(100)
	if len(a.got) != 1 || a.got[0] != "timer:rearmed" || a.gotTimes[0] != 7 {
		t.Fatalf("timer firings: %v at %v (want rearmed at 7 only)", a.got, a.gotTimes)
	}
}

// packet is a Body with something behind a pointer, so that a retained
// copy of a message would show any write to what it refers to.
type packet struct {
	from ProcID
	seq  int
	body []byte
}

func (p *packet) String() string { return fmt.Sprintf("%s#%d:%x", p.from, p.seq, p.body) }

// hoarder posts ONE message to all its peers on every tick, its Body a
// packet shared by every copy — the sharing smr's gossip relies on — and
// retains every message it is ever handed, beside what it looked like on
// arrival.
type hoarder struct {
	peers    []ProcID
	seq      int
	retained []Msg
	seenAs   []string
}

func (h *hoarder) Init(n *Node) { n.Arm(tick, 1) }

func (h *hoarder) OnMsg(n *Node, from ProcID, m Msg) {
	h.retained = append(h.retained, m)
	h.seenAs = append(h.seenAs, render(m))
}

func render(m Msg) string {
	return fmt.Sprintf("%d/%d/%d/%d %d,%d,%q %s", m.Shard, m.Slot, m.Phase, m.Kind, m.A, m.B, m.V, m.Body.(*packet))
}

func (h *hoarder) OnTick(n *Node, t Timer) {
	if h.seq++; h.seq > 60 {
		return
	}
	m := Msg{Shard: 1, Slot: h.seq, Kind: 2, A: int64(len(h.peers)), V: string(n.ID()),
		Body: &packet{from: n.ID(), seq: h.seq, body: []byte{byte(h.seq), byte(len(h.peers))}}}
	for _, peer := range h.peers {
		n.Post(peer, m)
	}
	n.Arm(tick, 2)
}

func (h *hoarder) OnRestart(n *Node) { n.Arm(tick, 1) }

// A message's Body is shared between deliveries — one value goes to
// every destination and to every duplicate — and the events that carried
// them are recycled. A handler that keeps every message it was ever
// handed must find each one exactly as it arrived, across global and
// per-link duplication and a crash–restart, and keeps exactly as many as
// the network delivered.
func TestRetainedPayloadsNeverChange(t *testing.T) {
	w := New(Config{Seed: 5, MinDelay: 1, MaxDelay: 6, DupProb: 0.3, DropProb: 0.05})
	ids := []ProcID{"a", "b", "c", "d"}
	hs := map[ProcID]*hoarder{}
	for _, id := range ids {
		hs[id] = &hoarder{peers: ids}
		w.AddNode(id, hs[id])
	}
	w.SetLinkRule("a", "b", LinkRule{DupProb: 0.8, ExtraMaxDelay: 15})
	w.SetLinkRule("c", "a", LinkRule{DupProb: 0.5, DropProb: 0.2})
	w.Crash("b", 40)
	w.Restart("b", 70)
	w.Run(1 << 30)

	if w.Duplicated() == 0 {
		t.Fatal("no duplicates scheduled: the run shares nothing")
	}
	total := 0
	for _, id := range ids {
		h := hs[id]
		total += len(h.retained)
		for i, m := range h.retained {
			if got := render(m); got != h.seenAs[i] {
				t.Fatalf("%s: message %d arrived as %s and now reads %s", id, i, h.seenAs[i], got)
			}
		}
	}
	if _, delivered, _ := w.Stats(); int64(total) != delivered {
		t.Fatalf("handlers retained %d messages, network delivered %d", total, delivered)
	}
}

// relay sends and re-arms from inside the callback of the event being
// dispatched — the reuse-while-in-use hazard of an event free list: were
// the dispatched event handed out again before its callback returned, it
// would be recycled twice, two later pushes would share one record, and a
// message would arrive twice, not at all, or as another.
type relay struct {
	peers    []ProcID
	next     int
	received []string
	sent     *[]string
}

func (r *relay) send(n *Node, hops int) {
	to := r.peers[r.next%len(r.peers)]
	r.next++
	tag := fmt.Sprintf("%s>%s#%d/%d", n.ID(), to, r.next, hops)
	*r.sent = append(*r.sent, tag)
	n.Send(to, relayMsg{tag: tag, hops: hops})
}

type relayMsg struct {
	tag  string
	hops int
}

func (r *relay) Init(n *Node) { n.SetTimer("kick", 1) }

func (r *relay) OnMessage(n *Node, from ProcID, payload any) {
	m := payload.(relayMsg)
	// Take more events than the one in flight frees: two sends, a re-arm
	// and a cancel, all before this callback returns.
	if m.hops > 0 {
		r.send(n, m.hops-1)
		if m.hops%2 == 0 {
			r.send(n, 0)
		}
	}
	n.SetTimer("kick", 3)
	n.SetTimer("spare", 2)
	n.CancelTimer("spare")
	// What this callback was handed still reads the same afterwards.
	if got := payload.(relayMsg); got != m || from == "" {
		panic("payload changed under the handler")
	}
	r.received = append(r.received, m.tag)
}

func (r *relay) OnTimer(n *Node, name string) {
	if name != "kick" {
		panic("fired " + name)
	}
	if r.next < 200 {
		r.send(n, 6)
		n.SetTimer(name, 4) // re-arm the very timer being dispatched
	}
}

func TestReuseWhileDispatching(t *testing.T) {
	w := New(Config{Seed: 9, MinDelay: 1, MaxDelay: 3})
	ids := []ProcID{"a", "b", "c"}
	var sent []string
	rs := map[ProcID]*relay{}
	for _, id := range ids {
		rs[id] = &relay{peers: ids, sent: &sent}
		w.AddNode(id, rs[id])
	}
	w.Run(1 << 30)

	var received []string
	for _, id := range ids {
		received = append(received, rs[id].received...)
	}
	if len(sent) < 500 {
		t.Fatalf("only %d messages sent", len(sent))
	}
	sort.Strings(sent)
	sort.Strings(received)
	if len(sent) != len(received) {
		t.Fatalf("sent %d messages, received %d", len(sent), len(received))
	}
	for i := range sent {
		if sent[i] != received[i] {
			t.Fatalf("message %d: sent %q, received %q", i, sent[i], received[i])
		}
	}
	if got := len(w.free); got > maxFreeEvents {
		t.Fatalf("free list holds %d events, bound is %d", got, maxFreeEvents)
	}
}

// The calendar pops in (at, push order), whatever was pushed in whatever
// order: the property the schedule digest rests on. A list sorted on
// (at, seq) is the oracle. Pushes land inside the window, just past it,
// and far beyond it (a recovery watchdog's 1 000–2 000 delays). Pops stop
// at a limit the way Run(maxTime) does, and some are dead, which moves the
// cursor but not the clock; after every stop, a push lands between the
// clock and the cursor, which rewinds the window.
func TestCalendarMatchesSortedOracle(t *testing.T) {
	const W = calendarWidth
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var c calendar
		var want []queued
		seq := int64(0)
		now := Time(0) // the time of the last live pop, as Network.now
		rewinds := 0
		push := func(at Time) {
			if at < c.cur {
				rewinds++
			}
			e := &event{timerGen: seq}
			c.push(at, e)
			want = append(want, queued{at: at, seq: seq, ev: e})
			seq++
		}
		// pop pops once with the given limit and checks the result against
		// the oracle; it reports whether an event was due.
		pop := func(limit Time) bool {
			sort.Slice(want, func(i, j int) bool { return want[i].before(want[j]) })
			e, at, ok := c.pop(limit)
			if len(want) == 0 || want[0].at > limit {
				if ok {
					t.Fatalf("seed %d: popped #%d at %d with limit %d, want nothing", seed, e.timerGen, at, limit)
				}
				return false
			}
			if !ok || e != want[0].ev || at != want[0].at {
				var got int64 = -1
				if ok {
					got = e.timerGen
				}
				t.Fatalf("seed %d: popped (#%d at %d, %v) with limit %d, want #%d at %d",
					seed, got, at, ok, limit, want[0].seq, want[0].at)
			}
			want = want[1:]
			if rng.Intn(5) > 0 { // one pop in five is dead
				now = at
			}
			return true
		}
		for i := 0; i < 4000; i++ {
			switch r := rng.Intn(100); {
			case r < 45:
				push(now + Time(rng.Intn(W)))
			case r < 60:
				push(now + W + Time(rng.Intn(2*W)))
			case r < 70:
				push(now + 1000 + Time(rng.Intn(1001)))
			default:
				// Run(limit) until it stops, then At(t) with now ≤ t < cur.
				limit := now + Time(rng.Intn(3*W))
				if rng.Intn(10) == 0 {
					limit = now + 2000
				}
				for n := rng.Intn(40); n > 0 && pop(limit); n-- {
				}
				if c.cur > now {
					push(now + Time(rng.Int63n(int64(c.cur-now))))
				}
			}
		}
		for pop(1 << 40) {
		}
		if len(want) != 0 || c.n != 0 || len(c.over) != 0 {
			t.Fatalf("seed %d: %d events left in the oracle, %d in the ring, %d in the overflow",
				seed, len(want), c.n, len(c.over))
		}
		if rewinds < 100 {
			t.Fatalf("seed %d: only %d pushes landed before the cursor", seed, rewinds)
		}
	}
}

package msgnet

import (
	"fmt"
	"testing"
)

// hop is the fault-mix pin's message: forwarded until ttl runs out.
type hop struct{ ttl int }

// chatter forwards every hop it receives to a rotating peer, re-arms and
// cancels a "tick" timer from its message handler, and on every tick
// sends a fresh burst to all peers — enough traffic to exercise every
// branch of Send and every way a queued event dies.
type chatter struct {
	peers       []ProcID
	msgs, ticks int
}

func (c *chatter) Init(n *Node) { n.SetTimer("tick", 3) }

func (c *chatter) OnMessage(n *Node, from ProcID, payload any) {
	c.msgs++
	if h := payload.(hop); h.ttl > 0 {
		n.Send(c.peers[c.msgs%len(c.peers)], hop{h.ttl - 1})
	}
	switch {
	case c.msgs%7 == 0:
		n.CancelTimer("tick")
	case c.msgs%3 == 0:
		n.SetTimer("tick", 4)
	}
}

func (c *chatter) OnTimer(n *Node, name string) {
	c.ticks++
	if c.ticks > 40 {
		return
	}
	for _, p := range c.peers {
		n.Send(p, hop{4})
	}
	n.SetTimer("tick", 5)
}

// TestSchedulePins holds one fault-mix run to literals recorded before
// the event queue was rewritten (DESIGN.md, decision 22): global loss and
// duplication, a link rule with loss, duplication and extra delay,
// nested blocks, a crash with restart, and a node that joins after
// messages were already sent to it. The queue's layout, the event free
// list and where the destination is resolved may change; the order in
// which events pop, and every RNG draw, may not.
func TestSchedulePins(t *testing.T) {
	w := New(Config{Seed: 3, MinDelay: 1, MaxDelay: 4, DropProb: 0.05, DupProb: 0.1})
	ids := []ProcID{"a", "b", "c", "late"}
	hs := map[ProcID]*chatter{}
	for _, id := range ids {
		hs[id] = &chatter{peers: ids}
	}
	for _, id := range ids[:3] {
		w.AddNode(id, hs[id])
	}
	w.SetLinkRule("a", "b", LinkRule{DropProb: 0.2, DupProb: 0.3, ExtraMinDelay: 2, ExtraMaxDelay: 9})
	// Messages to "late" queue up behind a long extra delay; the ones that
	// pop before it joins are dead, the rest are delivered.
	w.SetLinkRule("c", "late", LinkRule{ExtraMinDelay: 20, ExtraMaxDelay: 40})
	w.At(10, func() { w.Block("b", "c"); w.Block("b", "c") })
	w.At(25, func() { w.Unblock("b", "c") })
	w.At(45, func() { w.Unblock("b", "c") })
	w.Crash("c", 60)
	w.Restart("c", 90)
	w.At(120, func() { w.ClearLinkRule("a", "b") })
	mid := w.Run(30)
	w.AddNode("late", hs["late"])
	end := w.Run(1 << 30)

	sent, delivered, dropped := w.Stats()
	got := fmt.Sprintf("digest=%016x sent=%d delivered=%d dropped=%d duplicated=%d mid=%d end=%d",
		w.ScheduleDigest(), sent, delivered, dropped, w.Duplicated(), mid, end)
	for _, id := range ids {
		got += fmt.Sprintf(" %s=%d/%d", id, hs[id].msgs, hs[id].ticks)
	}
	const want = "digest=31c6da39c611e065 sent=3327 delivered=3405 dropped=197 duplicated=319 mid=30 end=918" +
		" a=871/49 b=872/51 c=833/54 late=829/43"
	if got != want {
		t.Fatalf("schedule moved:\n got %s\nwant %s", got, want)
	}
}

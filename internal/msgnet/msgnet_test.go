package msgnet

import (
	"fmt"
	"testing"
)

// pingPong: "a" sends ping to "b" on init; "b" replies pong.
type pingPong struct {
	peer     ProcID
	starter  bool
	got      []string
	gotTimes []Time
}

func (p *pingPong) Init(n *Node) {
	if p.starter {
		n.Send(p.peer, "ping")
	}
}

func (p *pingPong) OnMessage(n *Node, from ProcID, payload any) {
	if s, ok := payload.(string); ok {
		p.got = append(p.got, s)
	} else {
		p.got = append(p.got, "?")
	}
	p.gotTimes = append(p.gotTimes, n.Now())
	if payload == "ping" {
		n.Send(from, "pong")
	}
}

func (p *pingPong) OnTimer(n *Node, name string) {
	p.got = append(p.got, "timer:"+name)
	p.gotTimes = append(p.gotTimes, n.Now())
}

func TestUnitDelayRoundTrip(t *testing.T) {
	w := New(Config{Seed: 1})
	a := &pingPong{peer: "b", starter: true}
	b := &pingPong{peer: "a"}
	w.AddNode("a", a)
	w.AddNode("b", b)
	end := w.Run(100)
	if len(b.got) != 1 || b.got[0] != "ping" {
		t.Fatalf("b got %v", b.got)
	}
	if len(a.got) != 1 || a.got[0] != "pong" {
		t.Fatalf("a got %v", a.got)
	}
	// Unit delays: ping at t=1, pong at t=2. Virtual time = message delays.
	if b.gotTimes[0] != 1 || a.gotTimes[0] != 2 || end != 2 {
		t.Fatalf("times: b=%v a=%v end=%d", b.gotTimes, a.gotTimes, end)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() (int64, int64, int64, Time) {
		w := New(Config{Seed: 7, MinDelay: 1, MaxDelay: 5, DropProb: 0.2, DupProb: 0.1})
		a := &pingPong{peer: "b", starter: true}
		b := &pingPong{peer: "a"}
		w.AddNode("a", a)
		w.AddNode("b", b)
		for i := Time(0); i < 50; i += 5 {
			w.At(i, func() {
				if n := w.nodes["a"]; !n.crashed {
					n.Send("b", "ping")
				}
			})
		}
		end := w.Run(1000)
		s, d, dr := w.Stats()
		return s, d, dr, end
	}
	s1, d1, dr1, e1 := run()
	s2, d2, dr2, e2 := run()
	if s1 != s2 || d1 != d2 || dr1 != dr2 || e1 != e2 {
		t.Fatalf("runs differ: (%d,%d,%d,%d) vs (%d,%d,%d,%d)", s1, d1, dr1, e1, s2, d2, dr2, e2)
	}
}

func TestCrashStopsDelivery(t *testing.T) {
	w := New(Config{Seed: 1})
	a := &pingPong{peer: "b", starter: false}
	b := &pingPong{peer: "a"}
	w.AddNode("a", a)
	w.AddNode("b", b)
	w.Crash("b", 5)
	w.At(3, func() { w.nodes["a"].Send("b", "early") })  // delivered at 4
	w.At(10, func() { w.nodes["a"].Send("b", "late") })  // b crashed
	w.At(12, func() { w.nodes["b"].Send("a", "ghost") }) // crashed sender
	w.Run(100)
	if len(b.got) != 1 || b.got[0] != "early" {
		t.Fatalf("b got %v", b.got)
	}
	if len(a.got) != 0 {
		t.Fatalf("a got %v from crashed sender", a.got)
	}
}

func TestTimersFireAndCancel(t *testing.T) {
	w := New(Config{Seed: 1})
	a := &pingPong{}
	w.AddNode("a", a)
	w.At(0, func() {
		n := w.nodes["a"]
		n.SetTimer("t1", 5)
		n.SetTimer("t2", 7)
		n.SetTimer("t2", 9) // re-arm replaces
		n.SetTimer("t3", 3)
		n.CancelTimer("t3")
	})
	w.Run(100)
	if len(a.got) != 2 || a.got[0] != "timer:t1" || a.got[1] != "timer:t2" {
		t.Fatalf("timers fired: %v at %v", a.got, a.gotTimes)
	}
	if a.gotTimes[0] != 5 || a.gotTimes[1] != 9 {
		t.Fatalf("timer times: %v", a.gotTimes)
	}
}

func TestBlockDropsMessages(t *testing.T) {
	w := New(Config{Seed: 1})
	a := &pingPong{}
	b := &pingPong{}
	w.AddNode("a", a)
	w.AddNode("b", b)
	w.Block("a", "b")
	w.At(1, func() { w.nodes["a"].Send("b", "x") })
	w.At(2, func() { w.nodes["b"].Send("a", "y") }) // reverse direction open
	w.Run(100)
	if len(b.got) != 0 {
		t.Fatalf("blocked message delivered: %v", b.got)
	}
	if len(a.got) != 1 || a.got[0] != "y" {
		t.Fatalf("reverse direction broken: %v", a.got)
	}
	w.Unblock("a", "b")
	w.At(10, func() { w.nodes["a"].Send("b", "z") })
	w.Run(100)
	if len(b.got) != 1 || b.got[0] != "z" {
		t.Fatalf("unblock failed: %v", b.got)
	}
}

func TestDropProbabilityRoughly(t *testing.T) {
	w := New(Config{Seed: 3, DropProb: 0.5})
	a := &pingPong{}
	b := &pingPong{}
	w.AddNode("a", a)
	w.AddNode("b", b)
	const total = 2000
	for i := 0; i < total; i++ {
		i := i
		w.At(Time(i), func() { w.nodes["a"].Send("b", i) })
	}
	w.Run(Time(total + 10))
	_, delivered, dropped := w.Stats()
	if delivered+dropped != total {
		t.Fatalf("accounting: %d + %d != %d", delivered, dropped, total)
	}
	frac := float64(dropped) / total
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("drop fraction %f far from 0.5", frac)
	}
}

func TestDuplication(t *testing.T) {
	w := New(Config{Seed: 5, DupProb: 1.0})
	a := &pingPong{}
	b := &pingPong{}
	w.AddNode("a", a)
	w.AddNode("b", b)
	w.At(1, func() { w.nodes["a"].Send("b", "m") })
	w.Run(100)
	if len(b.got) != 2 {
		t.Fatalf("expected duplicate delivery, got %v", b.got)
	}
}

func TestFIFOTieBreakDeterminism(t *testing.T) {
	// Two messages scheduled for the same instant deliver in send order.
	w := New(Config{Seed: 1})
	b := &pingPong{}
	w.AddNode("a", &pingPong{})
	w.AddNode("b", b)
	w.At(1, func() {
		w.nodes["a"].Send("b", "first")
		w.nodes["a"].Send("b", "second")
	})
	w.Run(100)
	if len(b.got) != 2 || b.got[0] != "first" || b.got[1] != "second" {
		t.Fatalf("tie-break order: %v", b.got)
	}
}

func TestRunHonorsMaxTime(t *testing.T) {
	w := New(Config{Seed: 1})
	a := &pingPong{}
	w.AddNode("a", a)
	w.At(0, func() { w.nodes["a"].SetTimer("t", 50) })
	end := w.Run(10)
	if len(a.got) != 0 {
		t.Fatalf("event beyond maxTime ran: %v", a.got)
	}
	if end > 10 {
		t.Fatalf("end = %d", end)
	}
	w.Run(100)
	if len(a.got) != 1 {
		t.Fatalf("resumed run lost the event: %v", a.got)
	}
}

// recHandler is a pingPong that supports crash–recovery and counts
// OnRestart invocations.
type recHandler struct {
	pingPong
	restarts int
}

func (r *recHandler) OnRestart(n *Node) { r.restarts++ }

func TestRestartRevivesNode(t *testing.T) {
	w := New(Config{Seed: 1})
	a := &pingPong{}
	b := &recHandler{}
	w.AddNode("a", a)
	w.AddNode("b", b)
	w.Crash("b", 5)
	w.Restart("b", 20)
	w.At(10, func() { w.nodes["a"].Send("b", "while-down") })
	w.At(30, func() { w.nodes["a"].Send("b", "after-up") })
	w.Run(100)
	if len(b.got) != 1 || b.got[0] != "after-up" {
		t.Fatalf("b got %v", b.got)
	}
	if b.restarts != 1 {
		t.Fatalf("OnRestart ran %d times", b.restarts)
	}
	if w.nodes["b"].Crashed() {
		t.Fatal("b still crashed after restart")
	}
}

func TestRestartOfLiveNodeIsNoop(t *testing.T) {
	w := New(Config{Seed: 1})
	b := &recHandler{}
	w.AddNode("b", b)
	w.Restart("b", 5)
	w.Run(100)
	if b.restarts != 0 {
		t.Fatalf("OnRestart ran on a node that never crashed")
	}
}

func TestCrashClearsTimerBookkeeping(t *testing.T) {
	// Regression: Crash used to leave generation entries behind forever.
	// Both tables go: the named keys' and the typed keys'.
	w := New(Config{Seed: 1})
	a := &pingPong{}
	n := w.AddNode("a", a)
	w.At(0, func() {
		n.SetTimer("t1", 50)
		n.SetTimer("t2", 60)
		n.Arm(Timer{Shard: 1, Kind: 1}, 50)
		n.Arm(Timer{Shard: 2, Kind: 1}, 60)
		if got := n.TimerNames(); got != 4 {
			t.Errorf("TimerNames() = %d before the crash, want 4", got)
		}
	})
	w.Crash("a", 5)
	w.Run(10)
	if got := n.TimerNames(); got != 0 {
		t.Fatalf("crash leaked %d timer keys", got)
	}
}

func TestStaleTimerCannotFireAcrossRestart(t *testing.T) {
	// A timer armed before a crash must not fire into the post-restart
	// incarnation even if the restarted handler re-arms the same name and
	// the generation counters collide (both restart at 1).
	w := New(Config{Seed: 1})
	a := &pingPong{}
	w.AddNode("a", a)
	w.At(0, func() { w.nodes["a"].SetTimer("t", 50) }) // gen 1
	w.Crash("a", 5)
	w.Restart("a", 10)
	w.At(10, func() { w.nodes["a"].SetTimer("t", 50) }) // gen 1 again, a fresh counter
	w.Run(200)
	if len(a.got) != 1 || a.got[0] != "timer:t" || a.gotTimes[0] != 60 {
		t.Fatalf("timer firings: %v at %v (want one firing at 60)", a.got, a.gotTimes)
	}
}

// ticker records every timer key it is handed and when.
type ticker struct {
	fired []string
}

func (k *ticker) Init(n *Node)                      {}
func (k *ticker) OnMsg(n *Node, from ProcID, m Msg) {}
func (k *ticker) OnTick(n *Node, t Timer) {
	k.fired = append(k.fired, fmt.Sprintf("%d/%d/%d%s@%d", t.Shard, t.Phase, t.Kind, t.Name, n.Now()))
}

// A timer is its whole key. Cancelling or re-arming one key leaves alone
// every key that differs from it only in Shard, only in Phase or only in
// Kind — a host routes its shards and phases apart through exactly these
// fields, the shard's high bits included — and a named key beside a typed
// one with equal fields. The crash rule holds for typed keys: a key
// armed before a crash never fires into the next incarnation, though that
// one re-arms it at the same generation.
func TestTimerKeysAreIndependent(t *testing.T) {
	base := Timer{Shard: 1, Phase: 1, Kind: 1}
	others := []Timer{{Shard: 2, Phase: 1, Kind: 1}, {Shard: 1, Phase: 2, Kind: 1}, {Shard: 1, Phase: 1, Kind: 2},
		{Shard: 1 | 1<<17, Phase: 1, Kind: 1}, {Shard: 1 - 1<<31, Phase: 1, Kind: 1},
		{Shard: 1, Phase: 1, Kind: 1, Name: "x"}}
	w := New(Config{Seed: 1})
	k := &ticker{}
	n := w.AddNode("a", k)
	armAll := func(d Time) {
		n.Arm(base, d)
		for _, o := range others {
			n.Arm(o, d)
		}
	}
	// Cancel one key: the others fire.
	w.At(0, func() {
		armAll(10)
		n.Disarm(base)
	})
	// Re-arm one key: it fires once, at its new time, and the others at
	// theirs.
	w.At(20, func() {
		armAll(10)
		n.Arm(base, 15)
		if got := n.TimerNames(); got != 7 {
			t.Errorf("TimerNames() = %d, want 7", got)
		}
	})
	// Arm every key and a fresh one, crash, restart and re-arm two: only
	// those fire. The fresh key's generation is 1 in both incarnations.
	fresh := Timer{Shard: 3, Phase: 3, Kind: 3}
	w.At(40, func() {
		armAll(10)
		n.Arm(fresh, 10)
	})
	w.Crash("a", 42)
	w.Restart("a", 44)
	w.At(44, func() {
		if got := n.TimerNames(); got != 0 {
			t.Errorf("TimerNames() = %d after a crash, want 0", got)
		}
		n.Arm(fresh, 10)
		n.Arm(others[0], 10)
	})
	w.Run(100)
	want := []string{
		"2/1/1@10", "1/2/1@10", "1/1/2@10", "131073/1/1@10", "-2147483647/1/1@10", "1/1/1x@10",
		"2/1/1@30", "1/2/1@30", "1/1/2@30", "131073/1/1@30", "-2147483647/1/1@30", "1/1/1x@30", "1/1/1@35",
		"3/3/3@54", "2/1/1@54",
	}
	if fmt.Sprint(k.fired) != fmt.Sprint(want) {
		t.Fatalf("timers fired %v, want %v", k.fired, want)
	}
}

func TestLinkRuleDropAndClear(t *testing.T) {
	w := New(Config{Seed: 2})
	a := &pingPong{}
	b := &pingPong{}
	w.AddNode("a", a)
	w.AddNode("b", b)
	w.SetLinkRule("a", "b", LinkRule{DropProb: 1})
	w.At(1, func() { w.nodes["a"].Send("b", "x") })
	w.At(2, func() { w.nodes["b"].Send("a", "y") }) // reverse link unruled
	w.Run(100)
	if len(b.got) != 0 {
		t.Fatalf("ruled link delivered: %v", b.got)
	}
	if len(a.got) != 1 {
		t.Fatalf("reverse link affected: %v", a.got)
	}
	w.ClearLinkRule("a", "b")
	w.At(10, func() { w.nodes["a"].Send("b", "z") })
	w.Run(100)
	if len(b.got) != 1 || b.got[0] != "z" {
		t.Fatalf("cleared rule still dropping: %v", b.got)
	}
}

func TestLinkRuleDupAndDelay(t *testing.T) {
	w := New(Config{Seed: 2})
	a := &pingPong{}
	b := &pingPong{}
	w.AddNode("a", a)
	w.AddNode("b", b)
	w.SetLinkRule("a", "b", LinkRule{DupProb: 1, ExtraMinDelay: 10, ExtraMaxDelay: 10})
	w.At(1, func() { w.nodes["a"].Send("b", "m") })
	w.Run(100)
	if len(b.got) != 2 {
		t.Fatalf("expected duplicate delivery, got %v", b.got)
	}
	if b.gotTimes[0] != 12 || b.gotTimes[1] != 12 {
		t.Fatalf("extra delay not applied: %v", b.gotTimes)
	}
	if w.Duplicated() != 1 {
		t.Fatalf("Duplicated() = %d", w.Duplicated())
	}
}

func TestIdleLinkRulesPreserveSchedule(t *testing.T) {
	// Link rules draw from a dedicated fault stream, so rules on links
	// that carry no traffic must not perturb the base schedule — the
	// property that lets fault-free fault-plan runs replay the baseline.
	run := func(withRules bool) uint64 {
		w := New(Config{Seed: 9, MinDelay: 1, MaxDelay: 4, DropProb: 0.1, DupProb: 0.1})
		a := &pingPong{peer: "b", starter: true}
		b := &pingPong{peer: "a"}
		w.AddNode("a", a)
		w.AddNode("b", b)
		w.AddNode("c", &pingPong{})
		if withRules {
			w.SetLinkRule("c", "a", LinkRule{DropProb: 0.9, DupProb: 0.9, ExtraMaxDelay: 7})
		}
		for i := Time(0); i < 40; i += 2 {
			w.At(i, func() { w.nodes["a"].Send("b", "ping") })
		}
		w.Run(1000)
		return w.ScheduleDigest()
	}
	if d0, d1 := run(false), run(true); d0 != d1 {
		t.Fatalf("idle link rule changed schedule: %x vs %x", d0, d1)
	}
}

func TestScheduleDigestDeterminism(t *testing.T) {
	run := func(seed int64) uint64 {
		w := New(Config{Seed: seed, MinDelay: 1, MaxDelay: 3, DropProb: 0.2, DupProb: 0.2})
		a := &pingPong{peer: "b", starter: true}
		w.AddNode("a", a)
		w.AddNode("b", &pingPong{peer: "a"})
		for i := Time(0); i < 30; i++ {
			w.At(i, func() { w.nodes["a"].Send("b", "ping") })
		}
		w.Run(1000)
		return w.ScheduleDigest()
	}
	if run(4) != run(4) {
		t.Fatal("same seed produced different schedule digests")
	}
	if run(4) == run(5) {
		t.Fatal("different seeds produced equal schedule digests (suspicious)")
	}
}

func TestBlockNesting(t *testing.T) {
	w := New(Config{Seed: 1})
	b := &pingPong{}
	w.AddNode("a", &pingPong{})
	w.AddNode("b", b)
	w.Block("a", "b")
	w.Block("a", "b")
	w.Unblock("a", "b")
	w.At(1, func() { w.nodes["a"].Send("b", "x") })
	w.Run(100)
	if len(b.got) != 0 {
		t.Fatalf("nested block reopened early: %v", b.got)
	}
	w.Unblock("a", "b")
	w.At(10, func() { w.nodes["a"].Send("b", "y") })
	w.Run(100)
	if len(b.got) != 1 {
		t.Fatalf("fully unblocked link still closed: %v", b.got)
	}
}

func TestNodeIDsOrder(t *testing.T) {
	w := New(Config{Seed: 1})
	w.AddNode("z", &pingPong{})
	w.AddNode("a", &pingPong{})
	w.AddNode("m", &pingPong{})
	ids := w.NodeIDs()
	if len(ids) != 3 || ids[0] != "z" || ids[1] != "a" || ids[2] != "m" {
		t.Fatalf("NodeIDs() = %v (want insertion order)", ids)
	}
}

func TestDuplicateNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate node")
		}
	}()
	w := New(Config{Seed: 1})
	w.AddNode("a", &pingPong{})
	w.AddNode("a", &pingPong{})
}

package msgnet

import (
	"fmt"
	"testing"
	"unsafe"
)

// volley returns every message it receives to its sender with A one
// higher: a steady ping-pong of header-only messages.
type volley struct{ got int }

func (v *volley) Init(n *Node)            {}
func (v *volley) OnTick(n *Node, t Timer) {}
func (v *volley) OnMsg(n *Node, from ProcID, m Msg) {
	v.got++
	m.A++
	n.Post(from, m)
}

// echo posts one message to every peer on each tick, every copy the same
// Msg with its Body a fresh packet, and records what it posted and
// everything it receives.
type echo struct {
	peers  []ProcID
	seq    int
	posted map[string]Msg // by sender and Slot
	got    []Msg
	from   []ProcID
}

// tick is echo's one timer.
var tick = Timer{Kind: 1}

func (e *echo) Init(n *Node) { n.Arm(tick, 1) }

func (e *echo) OnMsg(n *Node, from ProcID, m Msg) {
	e.got = append(e.got, m)
	e.from = append(e.from, from)
}

func (e *echo) OnTick(n *Node, t Timer) {
	if e.seq++; e.seq > 80 {
		return
	}
	m := Msg{Shard: int32(len(n.ID())), Slot: e.seq, Phase: uint8(e.seq % 3), Kind: uint8(e.seq%5 + 1),
		A: int64(e.seq) << 40, B: -int64(e.seq), V: fmt.Sprintf("%s#%d", n.ID(), e.seq),
		Body: &packet{from: n.ID(), seq: e.seq, body: []byte{byte(e.seq)}}}
	e.posted[fmt.Sprint(n.ID(), "/", e.seq)] = m
	for _, p := range e.peers {
		if p != n.ID() {
			n.Post(p, m)
		}
	}
	n.Arm(tick, 2)
}

// Messages travel by value inside the pooled events: once the pool is
// warm, delivering a message that carries no Body allocates nothing, and
// every copy of a posted message — duplicates included, global and
// per-link — arrives field-equal to what was posted, carrying the very
// Body it was posted with.
func TestMessagesTravelByValue(t *testing.T) {
	t.Run("header-only-allocates-nothing", func(t *testing.T) {
		if raceEnabled {
			t.Skip("the race detector allocates on its own account")
		}
		w := New(Config{Seed: 2, MinDelay: 1, MaxDelay: 3})
		a, b := &volley{}, &volley{}
		na := w.AddNode("a", a)
		w.AddNode("b", b)
		w.At(0, func() {
			for i := 0; i < 8; i++ {
				na.Post("b", Msg{Shard: 3, Slot: i, Phase: 1, Kind: 2, V: "v"})
			}
		})
		w.Run(100) // warms the event pool
		_, before, _ := w.Stats()
		const runs = 20
		allocs := testing.AllocsPerRun(runs, func() { w.Run(w.Now() + 50) })
		_, after, _ := w.Stats()
		// AllocsPerRun makes one extra, unmeasured warm-up run.
		perRun := float64(after-before) / (runs + 1)
		t.Logf("%.0f deliveries per run, %.0f allocations per run", perRun, allocs)
		if perRun < 100 {
			t.Fatalf("only %.0f deliveries per run", perRun)
		}
		if allocs != 0 {
			t.Fatalf("%.0f allocations per run of %.0f deliveries, want 0", allocs, perRun)
		}
	})

	t.Run("copies-field-equal-under-duplication", func(t *testing.T) {
		w := New(Config{Seed: 4, MinDelay: 1, MaxDelay: 5, DupProb: 0.3, DropProb: 0.05})
		ids := []ProcID{"a", "bb", "ccc"}
		posted := map[string]Msg{}
		es := map[ProcID]*echo{}
		for _, id := range ids {
			es[id] = &echo{peers: ids, posted: posted}
			w.AddNode(id, es[id])
		}
		w.SetLinkRule("a", "bb", LinkRule{DupProb: 0.8, ExtraMaxDelay: 7})
		w.SetLinkRule("ccc", "a", LinkRule{DupProb: 0.5})
		w.Run(1 << 30)

		if w.Duplicated() == 0 {
			t.Fatal("no duplicates scheduled")
		}
		copies := map[string]int{}
		total := 0
		for _, id := range ids {
			e := es[id]
			total += len(e.got)
			for i, m := range e.got {
				key := fmt.Sprint(e.from[i], "/", m.Slot)
				want, ok := posted[key]
				if !ok {
					t.Fatalf("%s received a message nobody posted: %+v", id, m)
				}
				// == compares Body by identity: a *packet.
				if m != want {
					t.Fatalf("%s received %+v, %s posted %+v", id, m, e.from[i], want)
				}
				copies[string(id)+"<"+key]++
			}
		}
		if _, delivered, _ := w.Stats(); int64(total) != delivered {
			t.Fatalf("handlers received %d messages, network delivered %d", total, delivered)
		}
		dup := 0
		for _, n := range copies {
			if n > 1 {
				dup++
			}
		}
		if dup == 0 {
			t.Fatal("no message arrived twice at one destination")
		}
	})
}

// watchdog keeps timers armed far beyond the calendar's window, as a
// recovery watchdog does: every firing re-arms its key 1 000–2 000 delays
// out through the overflow heap, and re-arms the next key too, so the
// event that one had queued pops dead. One key is named.
type watchdog struct{ fired int }

const watchdogs = 16

func watchdogKey(i int) Timer {
	if i == 0 {
		return Timer{Name: "watchdog"}
	}
	return Timer{Shard: int32(i), Kind: 1}
}

func (k *watchdog) Init(n *Node) {
	for i := 0; i < watchdogs; i++ {
		n.Arm(watchdogKey(i), Time(1000+61*i))
	}
}

func (k *watchdog) OnMsg(n *Node, from ProcID, m Msg) {}

func (k *watchdog) OnTick(n *Node, t Timer) {
	k.fired++
	i := int(t.Shard)
	n.Arm(t, Time(1000+(37*k.fired)%1001))
	n.Arm(watchdogKey((i+1)%watchdogs), 2000)
}

// Timers re-armed beyond the calendar's window wait in the overflow heap
// and move into their buckets as the window reaches them; once the heap
// and the event pool are warm, that costs no allocation either, live
// firings and dead ones alike.
func TestOverflowTimersAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	w := New(Config{Seed: 1})
	k := &watchdog{}
	w.AddNode("a", k)
	w.Run(50_000) // warms the overflow heap and the event pool
	before := k.fired
	const runs = 20
	allocs := testing.AllocsPerRun(runs, func() { w.Run(w.Now() + 20_000) })
	perRun := float64(k.fired-before) / (runs + 1)
	t.Logf("%.0f firings per run, %.0f allocations per run", perRun, allocs)
	if perRun < 50 {
		t.Fatalf("only %.0f firings per run", perRun)
	}
	if allocs != 0 {
		t.Fatalf("%.0f allocations per run of %.0f firings, want 0", allocs, perRun)
	}
}

// The event record is what every send and timer writes. It was 160 B
// before the calendar threaded a link through it, and must not grow: 176
// B would be the next size class, and the bytes a faulted run allocates
// move with it.
func TestEventRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(event{}); got > 160 {
		t.Fatalf("unsafe.Sizeof(event{}) = %d B, want at most 160", got)
	}
}

package smr

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/mpcons"
	"repro/internal/msgnet"
	"repro/internal/trace"
	"repro/internal/workload"
)

// A client keys its phase timers by (shard, phase, kind) — never by
// slot — so the keys it holds are bounded by its shards and phases, not
// by how many slots it has proposed in: the count after 400 commands is
// the count after 4 000. The Quorum phase cancels its retransmit timer
// whether or not it armed it; with Retransmit off (the paper's default,
// and Config's zero value) that cancel must not cost a key either. The
// retry timeout is armed on every proposal and never fires, so each
// shard's progress timer — which a blocked landing's fill deadline
// reuses, rather than adding a key — is held from the first command on.
func TestTimerNamesBoundedPerClient(t *testing.T) {
	const shards = 2
	for _, retransmit := range []msgnet.Time{0, 6} {
		t.Run(fmt.Sprintf("retransmit=%d", retransmit), func(t *testing.T) {
			const ops = 4000
			w := msgnet.New(msgnet.Config{Seed: 3, MinDelay: 1, MaxDelay: 2})
			wl := workload.KeyedOpts{Clients: 2, Ops: ops, Keys: 64, ReadFrac: 0.3}
			clients := ids("c", wl.Clients)
			sc, err := BuildSharded(w, clients, ids("s", 3), ShardedConfig{
				Config: Config{FastPath: true, QuorumTimeout: 8, Retransmit: retransmit, CompactEvery: 16,
					RetryTimeout: 1_000_000},
				Shards: shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			per := make([][]Command, wl.Clients)
			for _, op := range workload.Keyed(rand.New(rand.NewSource(3)), wl) {
				per[op.Client] = append(per[op.Client], cmdOf(op))
			}
			for i, c := range clients {
				sc.SubmitPaced(c, per[i], msgnet.Time(i)*6, 12)
			}
			names := func() []int {
				var out []int
				for i := range clients {
					out = append(out, sc.nodes[i].TimerNames())
				}
				return out
			}
			for at := msgnet.Time(0); sc.Stats().Landed < 400 && at < pinHorizon; at++ {
				sc.Run(at)
			}
			early := names()
			sc.Run(pinHorizon)
			assertSafe(t, "run", sc, ops)
			late := names()
			for i, c := range clients {
				if late[i] > shards*maxPhases*2 {
					t.Errorf("client %s holds %d timer names, bound is %d", c, late[i], shards*maxPhases*2)
				}
				if early[i] != late[i] {
					t.Errorf("client %s holds %d timer names after 400 commands, %d after %d", c, early[i], late[i], ops)
				}
			}
		})
	}
}

// timerProbe wraps a client phase protocol and records every timer that
// reaches one of its components unless that component armed it — since
// its last Propose or SwitchIn, for exactly this moment — and has not
// cancelled it since.
type timerProbe struct {
	mpcons.PhaseProtocol
	fired, stale *int
}

func (p timerProbe) NewClient(env mpcons.ClientEnv) mpcons.ClientPhase {
	c := &probedClient{probe: p}
	c.env = probedEnv{ClientEnv: env, c: c}
	c.ClientPhase = p.PhaseProtocol.NewClient(&c.env)
	return c
}

type probedClient struct {
	mpcons.ClientPhase
	probe timerProbe
	env   probedEnv
	due   map[uint8]msgnet.Time
}

type probedEnv struct {
	mpcons.ClientEnv
	c *probedClient
}

func (e *probedEnv) SetTimer(kind uint8, d msgnet.Time) {
	e.c.due[kind] = e.Now() + d
	e.ClientEnv.SetTimer(kind, d)
}

func (e *probedEnv) CancelTimer(kind uint8) {
	delete(e.c.due, kind)
	e.ClientEnv.CancelTimer(kind)
}

func (c *probedClient) Propose(v trace.Value) {
	c.due = map[uint8]msgnet.Time{}
	c.ClientPhase.Propose(v)
}

func (c *probedClient) SwitchIn(pending, sv trace.Value) {
	c.due = map[uint8]msgnet.Time{}
	c.ClientPhase.SwitchIn(pending, sv)
}

func (c *probedClient) OnTimer(kind uint8) {
	if at, ok := c.due[kind]; ok && at == c.env.Now() {
		*c.probe.fired++
		delete(c.due, kind)
	} else {
		*c.probe.stale++
	}
	c.ClientPhase.OnTimer(kind)
}

// A retry re-proposes in the retired attempt's own slot: a command stays
// in its slot until that slot's decision is known. The replacement
// arms the same timer keys; a timer the retired attempt armed must never
// reach it. Here every server is down, so each attempt's long Quorum
// timeout is still pending when the retry timer retires the attempt.
func TestRedoAtSameSlotGetsNoStaleTimer(t *testing.T) {
	w, cl := build(t, msgnet.Config{Seed: 1}, Config{FastPath: true, QuorumTimeout: 100, RetryTimeout: 30}, 1, 3)
	var fired, stale int
	cl.shards[0].protos[0] = timerProbe{PhaseProtocol: cl.shards[0].protos[0], fired: &fired, stale: &stale}
	for _, s := range ids("s", 3) {
		w.Crash(s, 0)
		w.Restart(s, 250)
	}
	cl.SubmitAt("c1", "only", 0)
	cl.Run(1 << 30)
	rs := cl.Results()
	if len(rs) != 1 || rs[0].Slot != 0 || rs[0].Retries < 3 {
		t.Fatalf("results %+v: want one command landing in slot 0 after at least 3 retries", rs)
	}
	if fired == 0 {
		t.Fatal("no timer reached a phase component: the probe saw nothing")
	}
	if stale > 0 {
		t.Fatalf("%d timers armed by retired attempts reached their replacement (%d reached their own)", stale, fired)
	}
}

// retire cancels every timer kind the retired attempt left armed, not
// only the kinds its replacement arms again. Here two servers are down, so
// each attempt switches to Paxos after its Quorum timeout and stalls there
// on its retry timer; the retry timeout retires it while a Paxos retry is
// pending, and the replacement, back at the Quorum phase, arms no Paxos
// timer until its own switch. The retired attempt's Paxos retry must not
// reach the replacement's proposer in that gap.
func TestRetireCancelsKindsTheReplacementHasNotArmed(t *testing.T) {
	w, cl := build(t, msgnet.Config{Seed: 1}, Config{FastPath: true, QuorumTimeout: 30, RetryTimeout: 50}, 1, 3)
	var fired, stale int
	protos := cl.shards[0].protos
	protos[1] = timerProbe{PhaseProtocol: protos[1], fired: &fired, stale: &stale}
	for _, s := range ids("s", 3)[1:] {
		w.Crash(s, 0)
		w.Restart(s, 300)
	}
	cl.SubmitAt("c1", "only", 0)
	cl.Run(1 << 30)
	rs := cl.Results()
	if len(rs) != 1 || rs[0].Slot != 0 || rs[0].Retries < 1 || rs[0].Switches < 2 {
		t.Fatalf("results %+v: want one command landing in slot 0 after a retry and two switches", rs)
	}
	if fired == 0 {
		t.Fatal("no Paxos timer reached its proposer: the probe saw nothing")
	}
	if stale > 0 {
		t.Fatalf("%d Paxos timers armed by retired attempts reached their replacement (%d reached their own)", stale, fired)
	}
}

// retainer wraps a node handler and keeps every message it is handed,
// beside a rendering of it on arrival.
type retainer struct {
	inner interface {
		msgnet.RecoverableHandler
		msgnet.Receiver
	}
	retained []msgnet.Msg
	seenAs   []string
}

func (r *retainer) Init(n *msgnet.Node) { r.inner.Init(n) }
func (r *retainer) OnMsg(n *msgnet.Node, from msgnet.ProcID, m msgnet.Msg) {
	r.retained = append(r.retained, m)
	r.seenAs = append(r.seenAs, fmt.Sprintf("%#v", m))
	r.inner.OnMsg(n, from, m)
}
func (r *retainer) OnTick(n *msgnet.Node, t msgnet.Timer) { r.inner.OnTick(n, t) }
func (r *retainer) OnRestart(n *msgnet.Node)              { r.inner.OnRestart(n) }

// Phase messages travel by value; a watermark report's gossip shares one
// Body — the trimmed decisions — among every peer's copy, duplicates
// included. A node that keeps everything it ever received must find each
// message as it arrived — nobody may write to a Body after Post
// (msgnet.Msg) — under global and per-link duplication, a server
// crash–restart with durable recovery and a client crash–restart; and it
// retains exactly what the network delivered.
func TestSharedEnvelopesSurviveDuplication(t *testing.T) {
	w := msgnet.New(msgnet.Config{Seed: 11, MinDelay: 1, MaxDelay: 3, DupProb: 0.15})
	clients, servers := ids("c", 3), ids("s", 3)
	// BuildSharded registers its router and demux handlers on a network
	// that never runs; they are registered on w behind retainers.
	sc, err := BuildSharded(msgnet.New(msgnet.Config{}), clients, servers, ShardedConfig{Config: Config{
		FastPath: true, QuorumTimeout: 8, Retransmit: 6, RetryTimeout: 60, Recovery: true, CompactEvery: 8,
	}, RetainResults: true})
	if err != nil {
		t.Fatal(err)
	}
	sc.net = w
	var nodes []*retainer
	for _, id := range clients {
		nodes = append(nodes, &retainer{inner: sc.routers[id]})
		w.AddNode(id, nodes[len(nodes)-1])
	}
	for _, id := range servers {
		nodes = append(nodes, &retainer{inner: &serverMux{perShard: []*replica{sc.shards[0].reps[id]}}})
		w.AddNode(id, nodes[len(nodes)-1])
	}
	w.SetLinkRule(servers[0], clients[0], msgnet.LinkRule{DupProb: 0.6, ExtraMaxDelay: 5})
	w.SetLinkRule(clients[1], servers[2], msgnet.LinkRule{DupProb: 0.6})
	w.Crash(servers[1], 100)
	w.Restart(servers[1], 160)
	w.Crash(clients[2], 220)
	w.Restart(clients[2], 260)

	const perClient = 60
	for i, c := range clients {
		for j := 0; j < perClient; j++ {
			sc.SubmitAt(c, SetCmd(fmt.Sprintf("k%d", j%7), fmt.Sprintf("%s-v%d", c, j)), msgnet.Time(i+8*j))
		}
	}
	w.Run(pinHorizon) // ends by t≈600; a stalled slot must fail, not hang

	if got := len(sc.Results()); got != perClient*len(clients) {
		t.Fatalf("landed %d of %d commands", got, perClient*len(clients))
	}
	if err := sc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if w.Duplicated() == 0 {
		t.Fatal("no duplicates scheduled")
	}
	total, gossip := 0, 0
	for _, r := range nodes {
		total += len(r.retained)
		for i, m := range r.retained {
			if m.Kind == kindGossip {
				gossip++
			}
			if got := fmt.Sprintf("%#v", m); got != r.seenAs[i] {
				t.Fatalf("message arrived as %s and now reads %s", r.seenAs[i], got)
			}
		}
	}
	if gossip == 0 {
		t.Fatal("no gossip delivered: no Body was shared")
	}
	if _, delivered, _ := w.Stats(); int64(total) != delivered {
		t.Fatalf("retained %d messages, network delivered %d", total, delivered)
	}
}

// Phase components beyond the one in use are built on first use. A
// fault-free uncontended run never leaves the fast path, so it must never
// construct a Paxos proposer or acceptor.
func TestBackupPhaseBuiltOnFirstUse(t *testing.T) {
	w, cl := build(t, msgnet.Config{Seed: 1}, Config{FastPath: true}, 1, 3)
	for i := 0; i < 20; i++ {
		cl.SubmitAt("c1", SetCmd("k", fmt.Sprintf("v%d", i)), msgnet.Time(10*i))
	}
	// Observe mid-run, while instances are live.
	w.At(95, func() {
		if inst := cl.shards[0].byID["c1"].inst; inst != nil {
			if inst.comps[0] == nil || inst.comps[1] != nil {
				t.Errorf("live instance has phases built: %v", inst.comps)
			}
		}
	})
	cl.Run(1 << 30)
	if got := len(cl.Results()); got != 20 {
		t.Fatalf("landed %d of 20", got)
	}
	for _, rep := range cl.shards[0].reps {
		for slot := rep.slots.lo; slot < rep.slots.hi; slot++ {
			if sl := rep.slots.get(slot); sl != nil && (sl.comps[0] == nil || sl.comps[1] != nil) {
				t.Fatalf("replica %s slot %d has phases built: %v", rep.id, slot, sl.comps)
			}
		}
	}
}

// A decision can reach a client's backup phase before the client has
// switched into it. With one server down every slot spends a whole
// (deliberately long) Quorum timer before Paxos decides it. c1 proposes
// "first" in its slot 0 and crashes; c2 wins slot 1, is blocked on slot
// 0, and fills it: its Paxos round decides "first" (the servers accepted
// it) and tells every client. c1 has meanwhile restarted and re-proposed
// in slot 0, so the decidedMsg finds it still on its own Quorum timer.
// Built on first use, c1's proposer must come into being for that message
// and still know the decision at SwitchIn.
func TestLateDecisionReachesUnbuiltProposer(t *testing.T) {
	const qt, restart = 40, 140
	w, cl := build(t, msgnet.Config{Seed: 1}, Config{FastPath: true, QuorumTimeout: qt}, 2, 3)
	w.Crash("s1", 0)
	w.Crash("c1", 1)
	w.Restart("c1", restart)
	cl.SubmitAt("c1", "first", 0)
	cl.SubmitAt("c2", "second", 0)
	early := false
	c1 := cl.shards[0].byID["c1"]
	for at := msgnet.Time(restart); at < restart+qt; at++ {
		w.At(at, func() {
			if inst := c1.inst; inst != nil && c1.instSlot == 0 && inst.phase == 0 && inst.comps[1] != nil {
				early = true
			}
		})
	}
	cl.Run(1 << 30)
	if !early {
		t.Fatal("c1's proposer was never built ahead of its switch: the case was not exercised")
	}
	if err := cl.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	rs := cl.Results()
	if len(rs) != 2 || rs[0].Cmd != "second" || rs[0].Slot != 1 || rs[1].Cmd != "first" || rs[1].Slot != 0 {
		t.Fatalf("results %+v: want second in slot 1, then first in slot 0", rs)
	}
	// c1 learned slot 0 at its own switch, from the proposer that had been
	// told, without a Paxos round of its own: it lands exactly one Quorum
	// timeout after its restart.
	if rs[1].End != restart+qt {
		t.Fatalf("first command: %+v", rs[1])
	}
}

// cmdParts has the grammar strings.Split gave it: exactly three fields
// for set/get, exactly two for del, nothing else.
func TestCmdPartsGrammar(t *testing.T) {
	const s = cmdSep
	for _, tc := range []struct {
		cmd            Command
		kind, key, arg string
		ok             bool
	}{
		{SetCmd("k", "v"), "set", "k", "v", true},
		{GetCmd("k", "t"), "get", "k", "t", true},
		{DelCmd("k"), "del", "k", "", true},
		{Command("set" + s + s), "set", "", "", true}, // empty key and value are fields too
		{Command("del" + s), "del", "", "", true},
		{"", "", "", "", false},
		{"set", "", "", "", false},
		{"garbage", "", "", "", false},
		{Command("set" + s + "k"), "", "", "", false},                     // set needs a value
		{Command("get" + s + "k"), "", "", "", false},                     // get needs a tag
		{Command("set" + s + "k" + s + "v" + s + "x"), "", "", "", false}, // four fields
		{Command("del" + s + "k" + s + "v"), "", "", "", false},           // del takes no argument
		{Command("put" + s + "k" + s + "v"), "", "", "", false},           // unknown kind
		{Command("SET" + s + "k" + s + "v"), "", "", "", false},
		{Command(s + "k" + s + "v"), "", "", "", false}, // empty kind
		{Command("txp" + s + "id" + s + "0" + s + "ops"), "", "", "", false},
	} {
		kind, key, arg, ok := cmdParts(tc.cmd)
		if kind != tc.kind || key != tc.key || arg != tc.arg || ok != tc.ok {
			t.Errorf("cmdParts(%q) = (%q, %q, %q, %v), want (%q, %q, %q, %v)",
				tc.cmd, kind, key, arg, ok, tc.kind, tc.key, tc.arg, tc.ok)
		}
	}
}

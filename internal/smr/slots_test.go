package smr

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/mpcons"
	"repro/internal/msgnet"
	"repro/internal/trace"
)

// fillProbe wraps a shard's first phase and counts the proposals of the
// no-op: the fills.
type fillProbe struct {
	mpcons.PhaseProtocol
	fills *int
}

func (p fillProbe) NewClient(env mpcons.ClientEnv) mpcons.ClientPhase {
	return &fillCounter{ClientPhase: p.PhaseProtocol.NewClient(env), fills: p.fills}
}

type fillCounter struct {
	mpcons.ClientPhase
	fills *int
}

func (c *fillCounter) Propose(v trace.Value) {
	if v == noop {
		*c.fills++
	}
	c.ClientPhase.Propose(v)
}

// countFills installs a fillProbe on every shard (before Run) and returns
// the counter they share.
func countFills(shards ...*Shard) *int {
	fills := new(int)
	for _, sh := range shards {
		sh.protos[0] = fillProbe{PhaseProtocol: sh.protos[0], fills: fills}
	}
	return fills
}

// assertPrefixOrder checks what landing after the prefix promises: within
// a shard, a command invoked after another command's response landed in a
// higher slot. It also checks that no history the checker reads holds the
// no-op. It needs RetainResults and retained histories (no OnlineCheck).
func assertPrefixOrder(t *testing.T, name string, sc *ShardedCluster) {
	t.Helper()
	byShard := map[int][]SubmitResult{}
	for _, r := range sc.Results() {
		byShard[r.Shard] = append(byShard[r.Shard], r)
	}
	if len(byShard) == 0 {
		t.Fatalf("%s: no results retained", name)
	}
	for k, rs := range byShard {
		ends := append([]SubmitResult{}, rs...)
		sort.Slice(ends, func(i, j int) bool { return ends[i].End < ends[j].End })
		sort.Slice(rs, func(i, j int) bool { return rs[i].Start < rs[j].Start })
		j, top := 0, -1
		for _, r := range rs {
			for ; j < len(ends) && ends[j].End < r.Start; j++ {
				top = max(top, ends[j].Slot)
			}
			if r.Slot <= top {
				t.Fatalf("%s: shard %d: %q invoked at %d after a landing in slot %d, landed in slot %d",
					name, k, r.Cmd, r.Start, top, r.Slot)
			}
		}
	}
	histories := 0
	sc.hist.Traces(func(key string, joined bool, tr trace.Trace) {
		histories++
		for _, a := range tr {
			if strings.Contains(string(a.Input)+string(a.Output), string(noop)) {
				t.Fatalf("%s: the no-op entered %q's history: %v", name, key, a)
			}
		}
	})
	if histories == 0 {
		t.Fatalf("%s: no histories retained", name)
	}
}

// Landing after the prefix keeps real-time order on both pinned shapes and
// under a fault mix (rolling server restarts, a partition, a lossy link),
// across network seeds.
func TestLandingAfterPrefixKeepsRealTimeOrder(t *testing.T) {
	mix := func(clients, servers []msgnet.ProcID) faults.Plan {
		return faults.Plan{
			Crashes:    faults.RollingRestart(servers, 60, 80, 30),
			Partitions: []faults.Partition{faults.Split([]msgnet.ProcID{servers[0]}, servers[1:], 300, 360)},
			Links:      []faults.LinkFault{{From: clients[0], To: servers[0], Rule: msgnet.LinkRule{DropProb: 0.3}, Start: 20, Until: 200}},
		}
	}
	kv, txn := kvFeeds(2000), txnFaultsFeeds()
	for seed := int64(1); seed <= 3; seed++ {
		posthoc := func(n *msgnet.Config, s *ShardedConfig) {
			n.Seed = seed
			s.OnlineCheck, s.RetainResults = false, true
		}
		name := fmt.Sprintf("smr-kv seed=%d", seed)
		_, sc, _ := kvShape(t, kv, posthoc)
		assertSafe(t, name, sc, 2000)
		assertPrefixOrder(t, name, sc)

		name = fmt.Sprintf("smr-txn-faults seed=%d", seed)
		_, tc, _ := txnFaultsShape(t, txn, posthoc)
		if st := tc.Stats(); st.Landed != st.Submitted {
			t.Fatalf("%s: landed %d of %d log entries", name, st.Landed, st.Submitted)
		}
		assertTxnSafe(t, name, tc)
		assertPrefixOrder(t, name, tc.ShardedCluster)

		name = fmt.Sprintf("chaos seed=%d", seed)
		run := runChaos(t, seed, chaosCfg(true), chaosWL, 8, mix)
		assertSafe(t, name, run.sc, int64(chaosWL.Ops))
		assertPrefixOrder(t, name, run.sc)
	}
}

// A fill races the slot it fills. Against a slot its owner skipped, it can
// only decide the no-op, which is what the owner declared without a
// round. Against a live owner's command one of the two wins; when the fill
// does, the owner re-proposes in its next owned slot, and either way the
// command lands exactly once.
func TestFillRaces(t *testing.T) {
	t.Run("skipped", func(t *testing.T) {
		// c1 owns the even slots and is idle when c2 wins slot 1; it skips
		// slot 0, but its skip reply never reaches c2, which fills slot 0.
		w, cl := build(t, msgnet.Config{Seed: 1}, Config{FastPath: true}, 2, 3)
		fills := countFills(cl.shards[0])
		w.Block("c1", "c2")
		cl.SubmitAt("c2", "second", 0)
		cl.SubmitAt("c1", "later", 5)
		cl.Run(1 << 20)
		if err := cl.CheckConsistency(); err != nil {
			t.Fatal(err)
		}
		rs := cl.Results()
		if len(rs) != 2 || rs[0].Cmd != "later" || rs[0].Slot != 2 || rs[1].Cmd != "second" || rs[1].Slot != 1 {
			t.Fatalf("results %+v: want later in slot 2, second in slot 1", rs)
		}
		if *fills == 0 {
			t.Fatal("c2 never filled slot 0: the race was not exercised")
		}
		for _, c := range []msgnet.ProcID{"c1", "c2"} {
			if v := cl.Log(0, c)[0]; v != noop {
				t.Fatalf("%s holds %q in slot 0, want the no-op", c, v)
			}
		}
	})
	t.Run("live-owner", func(t *testing.T) {
		// c1's links to the servers are slow: c2 wins slot 1 at once and
		// fills c1's slot 0 while c1's command is still arriving.
		var fillWon, ownerWon int
		for seed := int64(1); seed <= 40; seed++ {
			w, cl := build(t, msgnet.Config{Seed: seed, MinDelay: 1, MaxDelay: 4}, Config{FastPath: true}, 2, 3)
			fills := countFills(cl.shards[0])
			for _, s := range ids("s", 3) {
				w.SetLinkRule("c1", s, msgnet.LinkRule{ExtraMinDelay: 8, ExtraMaxDelay: 24})
			}
			cl.SubmitAt("c1", "mine", 0)
			cl.SubmitAt("c2", "other", 0)
			cl.Run(1 << 20)
			if err := cl.CheckConsistency(); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			rs := cl.Results()
			if len(rs) != 2 {
				t.Fatalf("seed %d: results %+v: want both commands landed once", seed, rs)
			}
			for _, r := range rs {
				if r.Cmd != "mine" {
					continue
				}
				switch {
				case *fills == 0:
				case r.Slot == 0 && r.Attempts == 1:
					ownerWon++
				case r.Slot >= 2 && r.Slot%2 == 0 && r.Attempts == 2:
					fillWon++
				default:
					t.Fatalf("seed %d: %+v after %d fills", seed, r, *fills)
				}
			}
		}
		t.Logf("fill won %d races, owner won %d", fillWon, ownerWon)
		if fillWon == 0 || ownerWon == 0 {
			t.Fatalf("fill won %d races, owner won %d: want both outcomes", fillWon, ownerWon)
		}
	})
}

// With messages lost at random — notices and skip replies among them — a
// blocked client learns the lower slots it misses by filling them, and
// every command still lands exactly once.
func TestLossLandsThroughFills(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		w := msgnet.New(msgnet.Config{Seed: seed, MinDelay: 1, MaxDelay: 2, DropProb: 0.1})
		clients := ids("c", chaosWL.Clients)
		sc, err := BuildSharded(w, clients, ids("s", 3), ShardedConfig{
			Config: Config{FastPath: true, QuorumTimeout: 8, Retransmit: 6, RetryTimeout: 60, CompactEvery: 8},
			Shards: 2, RetainResults: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		fills := countFills(sc.shards...)
		per := make([][]Command, len(clients))
		for i := 0; i < chaosWL.Ops; i++ {
			c := i % len(clients)
			per[c] = append(per[c], SetCmd(fmt.Sprintf("k%d", i%chaosWL.Keys), fmt.Sprintf("v%d", i)))
		}
		for i, c := range clients {
			sc.SubmitPaced(c, per[i], msgnet.Time(i)*3, 8)
		}
		sc.Run(pinHorizon)
		name := fmt.Sprintf("seed=%d", seed)
		assertSafe(t, name, sc, int64(chaosWL.Ops))
		assertPrefixOrder(t, name, sc)
		if _, _, dropped := w.Stats(); dropped == 0 || *fills == 0 {
			t.Fatalf("%s: %d messages dropped, %d fills: the loss path was not exercised", name, dropped, *fills)
		}
	}
}

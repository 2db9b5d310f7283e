package smr

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/check"
	"repro/internal/msgnet"
	"repro/internal/workload"
)

// cmdOf encodes a keyed workload op as a replicated-log command.
func cmdOf(op workload.KeyedOp) Command {
	if op.Read {
		return GetCmd(op.Key, op.Value)
	}
	return SetCmd(op.Key, op.Value)
}

// runSharded drives a keyed workload through a sharded cluster: every
// client submits its ops at t=0 and the router pipelines them per shard.
func runSharded(t *testing.T, seed int64, shards int, cfg Config, wl workload.KeyedOpts) *ShardedCluster {
	t.Helper()
	w := msgnet.New(msgnet.Config{Seed: seed, MinDelay: 1, MaxDelay: 2})
	clients := ids("c", wl.Clients)
	sc, err := BuildSharded(w, clients, ids("s", 3), ShardedConfig{Config: cfg, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	ops := workload.Keyed(rand.New(rand.NewSource(seed)), wl)
	perClient := make([][]Command, wl.Clients)
	for _, op := range ops {
		perClient[op.Client] = append(perClient[op.Client], cmdOf(op))
	}
	for i, c := range clients {
		sc.SubmitManyAt(c, perClient[i], 0)
	}
	sc.Run(100_000_000)
	return sc
}

// A sharded run lands every command, keeps per-shard logs consistent,
// and every per-key history is linearizable — across shard counts,
// uniform and zipf key distributions, and seeds.
func TestShardedPropertyLinearizablePerKey(t *testing.T) {
	for _, shards := range []int{1, 2, 4} {
		for _, zipf := range []float64{0, 1.3} {
			for seed := int64(1); seed <= 3; seed++ {
				wl := workload.KeyedOpts{Clients: 3, Ops: 300, Keys: 24, ReadFrac: 0.4, ZipfS: zipf}
				sc := runSharded(t, seed, shards, Config{FastPath: true, QuorumTimeout: 8, Retransmit: 6}, wl)
				name := fmt.Sprintf("shards=%d zipf=%.1f seed=%d", shards, zipf, seed)
				st := sc.Stats()
				if st.Landed != int64(wl.Ops) {
					t.Fatalf("%s: landed %d/%d", name, st.Landed, wl.Ops)
				}
				if err := sc.CheckConsistency(); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sum, err := sc.CheckLinearizable(context.Background())
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if sum.Ops != int64(wl.Ops) {
					t.Fatalf("%s: checked %d ops, landed %d", name, sum.Ops, wl.Ops)
				}
			}
		}
	}
}

// Keys never leak across shards: every decided command in every shard's
// log hashes to that shard. The only unkeyed entry is the no-op of a
// slot its owner passed over.
func TestShardedKeysNeverLeak(t *testing.T) {
	sc := runSharded(t, 11, 4, Config{FastPath: true, QuorumTimeout: 8},
		workload.KeyedOpts{Clients: 3, Ops: 240, Keys: 32, ReadFrac: 0.3})
	if err := sc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	seen, noops := 0, 0
	for k := 0; k < sc.Shards(); k++ {
		for _, c := range sc.clients {
			for _, cmd := range sc.Log(k, c) {
				if cmd == noop {
					noops++
					continue
				}
				key, ok := CmdKey(cmd)
				if !ok {
					t.Fatalf("shard %d decided unkeyed command %q", k, cmd)
				}
				if ShardOf(key, sc.Shards()) != k {
					t.Fatalf("key %q leaked into shard %d", key, k)
				}
				seen++
			}
		}
	}
	if seen == 0 || noops == 0 {
		t.Fatalf("inspected %d decided commands and %d no-ops, want both", seen, noops)
	}
	// And the shards' per-key traces partition the recorded histories.
	n := 0
	for k := 0; k < sc.Shards(); k++ {
		n += len(sc.KeyTraces(k))
	}
	if sum, err := sc.CheckLinearizable(context.Background()); err != nil || n != sum.Traces {
		t.Fatalf("shards hold %d key traces, the check saw %d histories (%v)", n, sum.Traces, err)
	}
}

// One of three servers crashed from t=0: the fast path cannot complete,
// every slot falls back to Paxos, and the multi-shard run stays both
// consistent and linearizable per key.
func TestShardedCrashTolerance(t *testing.T) {
	w := msgnet.New(msgnet.Config{Seed: 17, MinDelay: 1, MaxDelay: 2})
	clients := ids("c", 3)
	sc, err := BuildSharded(w, clients, ids("s", 3),
		ShardedConfig{Config: Config{FastPath: true, QuorumTimeout: 8, Retransmit: 6}, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	w.Crash("s1", 0)
	wl := workload.KeyedOpts{Clients: 3, Ops: 180, Keys: 24, ReadFrac: 0.4}
	ops := workload.Keyed(rand.New(rand.NewSource(17)), wl)
	perClient := make([][]Command, wl.Clients)
	for _, op := range ops {
		perClient[op.Client] = append(perClient[op.Client], cmdOf(op))
	}
	for i, c := range clients {
		sc.SubmitManyAt(c, perClient[i], 0)
	}
	sc.Run(100_000_000)
	st := sc.Stats()
	if st.Landed != int64(wl.Ops) {
		t.Fatalf("landed %d/%d under a crashed server", st.Landed, wl.Ops)
	}
	if st.FastPath != 0 {
		t.Fatalf("%d submissions claimed the fast path with a crashed server", st.FastPath)
	}
	if err := sc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.CheckLinearizable(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// Log compaction frees replica and client slot state without disturbing
// consistency or linearizability. The workload is paced (sustained load)
// so clients advance their watermarks together — the regime compaction
// is designed for.
func TestShardedCompaction(t *testing.T) {
	const ops = 600
	w := msgnet.New(msgnet.Config{Seed: 23, MinDelay: 1, MaxDelay: 2})
	wl := workload.KeyedOpts{Clients: 3, Ops: ops, Keys: 32, ReadFrac: 0.3}
	clients := ids("c", wl.Clients)
	sc, err := BuildSharded(w, clients, ids("s", 3),
		ShardedConfig{Config: Config{FastPath: true, QuorumTimeout: 8, CompactEvery: 16}, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	kops := workload.Keyed(rand.New(rand.NewSource(23)), wl)
	perClient := make([][]Command, wl.Clients)
	for _, op := range kops {
		perClient[op.Client] = append(perClient[op.Client], cmdOf(op))
	}
	const period = 12
	for i, c := range clients {
		sc.SubmitPaced(c, perClient[i], msgnet.Time(i*period/wl.Clients), period)
	}
	sc.Run(100_000_000)
	st := sc.Stats()
	if st.Landed != ops {
		t.Fatalf("landed %d/%d", st.Landed, ops)
	}
	if err := sc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.CheckLinearizable(context.Background()); err != nil {
		t.Fatal(err)
	}
	// Replica slot state is bounded by the compaction window, not the log.
	for k, sh := range sc.shards {
		slots := int(st.PerShardLanded[k])
		for _, rep := range sh.reps {
			if rep.gcFloor == 0 {
				t.Fatalf("shard %d replica %s never compacted", k, rep.id)
			}
			if held(&rep.slots) > slots/2 {
				t.Fatalf("shard %d replica %s retains %d/%d slots after compaction",
					k, rep.id, held(&rep.slots), slots)
			}
		}
		for _, c := range sh.byID {
			if c.trimmed == 0 && held(&c.log) > slots/2 {
				t.Fatalf("shard %d client %s log never trimmed (%d entries)", k, c.id, held(&c.log))
			}
		}
	}
}

// Idle clients must not pin the compaction floor. Half the clients
// submit a short feed and go idle early. They hear of the active
// clients' commands through their notices, but of each other's no-ops
// only through the passive decision gossip (kindGossip) riding the
// active clients' watermark reports; that keeps their frontiers — and so
// every replica's gcFloor, the minimum watermark over ALL clients —
// tracking the log tip instead of freezing at their first unknown no-op.
func TestShardedCompactionIdleClients(t *testing.T) {
	const ce = 16
	w := msgnet.New(msgnet.Config{Seed: 31, MinDelay: 1, MaxDelay: 2})
	clients := ids("c", 4)
	sc, err := BuildSharded(w, clients, ids("s", 3),
		ShardedConfig{Config: Config{FastPath: true, QuorumTimeout: 8, Retransmit: 6, CompactEvery: ce}})
	if err != nil {
		t.Fatal(err)
	}
	// c1/c2 submit 240 commands each; c3/c4 only 24, then idle.
	counts := []int{240, 240, 24, 24}
	total := 0
	const period = 12
	for i, c := range clients {
		cmds := make([]Command, counts[i])
		for j := range cmds {
			cmds[j] = SetCmd(fmt.Sprintf("k%d", j%8), fmt.Sprintf("v%d-%d", i, j))
		}
		total += counts[i]
		sc.SubmitPaced(c, cmds, msgnet.Time(i), period)
	}
	sh := sc.shards[0]
	idle := clients[2:]
	// The short feeds have landed well before t=600, the long ones run
	// to t≈2 900.
	sc.Run(600)
	var early []int
	for _, id := range idle {
		if c := sh.byID[id]; c.current.live {
			t.Fatalf("client %s still busy at t=600", id)
		} else {
			early = append(early, c.frontier)
		}
	}
	sc.Run(100_000_000)
	if st := sc.Stats(); st.Landed != int64(total) {
		t.Fatalf("landed %d/%d", st.Landed, total)
	}
	if err := sc.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	if _, err := sc.CheckLinearizable(context.Background()); err != nil {
		t.Fatal(err)
	}
	// A report goes out every CompactEvery rounds of the slot residues
	// (an idle one every quarter of that), so both the idle clients'
	// frontiers and the floor must end within a few such windows of the
	// log tip, which no-op slots put well above the 528 commands.
	window := ce * len(clients)
	tip := 0
	for _, c := range sh.byID {
		tip = max(tip, c.frontier)
	}
	if tip < total+total/2 {
		t.Fatalf("log tip at slot %d for %d commands: expected the idle clients' slots to be no-ops", tip, total)
	}
	for i, id := range idle {
		c := sh.byID[id]
		t.Logf("idle client %s: frontier %d at t=600, %d at the end; log tip %d", id, early[i], c.frontier, tip)
		if c.frontier < tip-2*window || c.frontier < early[i]+tip/2 {
			t.Fatalf("idle client %s's frontier moved %d → %d, log tip %d: it stopped learning", id, early[i], c.frontier, tip)
		}
		// Its own log stays trimmed too, at the idle quarter-window.
		if held(&c.log) > 2*window {
			t.Fatalf("idle client %s retains %d log entries", id, held(&c.log))
		}
	}
	for _, rep := range sh.reps {
		if rep.gcFloor < tip-4*window {
			t.Fatalf("replica %s compaction floor pinned at %d, log tip %d: idle clients stopped reporting",
				rep.id, rep.gcFloor, tip)
		}
		if held(&rep.slots) > 2*window {
			t.Fatalf("replica %s retains %d slot states after compaction", rep.id, held(&rep.slots))
		}
	}
}

// Sharded routing is deterministic and total: every command routes to
// exactly one shard, keyed commands by their key.
func TestShardOf(t *testing.T) {
	if ShardOf("k1", 1) != 0 {
		t.Fatal("single shard must route everything to 0")
	}
	spread := map[int]bool{}
	for i := 0; i < 64; i++ {
		s := ShardOf(fmt.Sprintf("k%d", i), 4)
		if s < 0 || s >= 4 {
			t.Fatalf("shard %d out of range", s)
		}
		spread[s] = true
	}
	if len(spread) != 4 {
		t.Fatalf("64 keys only hit %d/4 shards", len(spread))
	}
}

// Commands embedding the reserved field separator are rejected at
// construction: they would otherwise silently fall out of the KV
// grammar and escape keyed routing and per-key verification.
func TestCommandSeparatorRejected(t *testing.T) {
	for name, build := range map[string]func(){
		"set-value": func() { SetCmd("k", "a\x1fb") },
		"set-key":   func() { SetCmd("k\x1f", "v") },
		"get-tag":   func() { GetCmd("k", "t\x1f") },
		"del-key":   func() { DelCmd("\x1fk") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: embedded separator accepted", name)
				}
			}()
			build()
		}()
	}
}

func TestKeyedCommandCodecs(t *testing.T) {
	for _, tc := range []struct {
		cmd  Command
		key  string
		ok   bool
		reg  bool
		kind string
	}{
		{SetCmd("a", "v1"), "a", true, true, "w"},
		{GetCmd("a", "t1"), "a", true, true, "r"},
		{DelCmd("a"), "a", true, false, ""},
		{"garbage", "", false, false, ""},
	} {
		key, ok := CmdKey(tc.cmd)
		if ok != tc.ok || key != tc.key {
			t.Fatalf("CmdKey(%q) = %q, %v", tc.cmd, key, ok)
		}
		rkey, in, rok := RegisterInput(tc.cmd)
		if rok != tc.reg {
			t.Fatalf("RegisterInput(%q) ok = %v", tc.cmd, rok)
		}
		if rok {
			if rkey != tc.key {
				t.Fatalf("RegisterInput(%q) key = %q", tc.cmd, rkey)
			}
			if !strings.HasPrefix(string(in), tc.kind+":") {
				t.Fatalf("RegisterInput(%q) input = %q", tc.cmd, in)
			}
		}
	}
}

// runShardedCfg is runSharded with full control over the ShardedConfig.
func runShardedCfg(t *testing.T, seed int64, shcfg ShardedConfig, wl workload.KeyedOpts) *ShardedCluster {
	t.Helper()
	w := msgnet.New(msgnet.Config{Seed: seed, MinDelay: 1, MaxDelay: 2})
	clients := ids("c", wl.Clients)
	sc, err := BuildSharded(w, clients, ids("s", 3), shcfg)
	if err != nil {
		t.Fatal(err)
	}
	ops := workload.Keyed(rand.New(rand.NewSource(seed)), wl)
	perClient := make([][]Command, wl.Clients)
	for _, op := range ops {
		perClient[op.Client] = append(perClient[op.Client], cmdOf(op))
	}
	for i, c := range clients {
		sc.SubmitManyAt(c, perClient[i], 0)
	}
	sc.Run(100_000_000)
	return sc
}

// TestOnlineCheckAgreesWithPostHoc runs identical workloads with post-hoc
// and online (streaming per-key session) checking: the simulated schedule
// must be identical, verdicts must agree, and the online cluster must not
// retain raw per-key histories.
func TestOnlineCheckAgreesWithPostHoc(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		wl := workload.KeyedOpts{Clients: 3, Ops: 300, Keys: 24, ReadFrac: 0.4}
		cfg := Config{FastPath: true, QuorumTimeout: 8, Retransmit: 6}

		post := runShardedCfg(t, seed, ShardedConfig{Config: cfg, Shards: 2}, wl)
		online := runShardedCfg(t, seed, ShardedConfig{Config: cfg, Shards: 2, OnlineCheck: true}, wl)

		if p, o := post.Stats(), online.Stats(); p.Landed != o.Landed || p.Switches != o.Switches {
			t.Fatalf("seed %d: online checking perturbed the simulation: %+v vs %+v", seed, p, o)
		}
		if err := online.CheckConsistency(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		psum, err := post.CheckLinearizable(context.Background())
		if err != nil {
			t.Fatalf("seed %d post-hoc: %v", seed, err)
		}
		osum, err := online.CheckLinearizable(context.Background())
		if err != nil {
			t.Fatalf("seed %d online: %v", seed, err)
		}
		if !osum.Online || psum.Online {
			t.Fatalf("seed %d: Online flags wrong: post %v, online %v", seed, psum.Online, osum.Online)
		}
		sameShape(t, fmt.Sprintf("seed %d", seed), TxnCheck{HistoryCheck: psum}, TxnCheck{HistoryCheck: osum})
		kept := 0
		for k := 0; k < online.Shards(); k++ {
			if got := online.KeyTraces(k); len(got) != 0 {
				t.Fatalf("seed %d: online cluster retained %d raw histories in shard %d", seed, len(got), k)
			}
			kept += len(post.KeyTraces(k))
		}
		if kept != psum.Traces {
			t.Fatalf("seed %d: post-hoc cluster retained %d histories and checked %d", seed, kept, psum.Traces)
		}
	}
}

// TestOnlineCheckBudgetSurfaces: a starvation budget on the streaming
// sessions must surface as an error from CheckLinearizable, not a wrong
// verdict — under ExactCheck, because the default register fast path
// spends no budget at all on in-fragment histories (the second part
// pins exactly that: same starved budget, fast path, clean verdict).
// The last part holds the two paths to one budget unit (DESIGN.md,
// decision 34): at 20 nodes per fed action the exact online sessions and
// the post-hoc one-shot pass over the same schedule decide alike — a
// post-hoc budget spanning each history used to give up on it.
func TestOnlineCheckBudgetSurfaces(t *testing.T) {
	wl := workload.KeyedOpts{Clients: 3, Ops: 200, Keys: 4, ReadFrac: 0.4}
	sc := runShardedCfg(t, 1, ShardedConfig{
		Config:      Config{FastPath: true, QuorumTimeout: 8, Retransmit: 6},
		Shards:      2,
		OnlineCheck: true,
		CheckBudget: 1,
		ExactCheck:  true,
	}, wl)
	if _, err := sc.CheckLinearizable(context.Background()); err == nil {
		t.Fatal("expected a budget error from the starved online sessions")
	}
	fast := runShardedCfg(t, 1, ShardedConfig{
		Config:      Config{FastPath: true, QuorumTimeout: 8, Retransmit: 6},
		Shards:      2,
		OnlineCheck: true,
		CheckBudget: 1,
	}, wl)
	sum, err := fast.CheckLinearizable(context.Background())
	if err != nil {
		t.Fatalf("fast-path sessions must not spend the starved budget: %v", err)
	}
	if !sum.Online || sum.Traces == 0 {
		t.Fatalf("fast-path online check summarized nothing: %+v", sum)
	}

	const budget = 20
	online := runShardedCfg(t, 1, ShardedConfig{
		Config:      Config{FastPath: true, QuorumTimeout: 8, Retransmit: 6},
		Shards:      2,
		OnlineCheck: true,
		CheckBudget: budget,
		ExactCheck:  true,
	}, wl)
	posthoc := runShardedCfg(t, 1, ShardedConfig{
		Config: Config{FastPath: true, QuorumTimeout: 8, Retransmit: 6},
		Shards: 2,
	}, wl)
	on, onErr := online.CheckLinearizable(context.Background())
	post, postErr := posthoc.CheckLinearizable(context.Background(), check.WithBudget(budget))
	if onErr != nil || postErr != nil || on.Traces != post.Traces || on.Ops != post.Ops || on.Traces == 0 {
		t.Fatalf("budget %d per fed action: online %+v (%v), post hoc %+v (%v); want the same linearizable histories",
			budget, on, onErr, post, postErr)
	}
}

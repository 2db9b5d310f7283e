package smr

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/adt"
	"repro/internal/faults"
	"repro/internal/msgnet"
	"repro/internal/trace"
	"repro/internal/workload"
)

// txnCfg is the shared sharded configuration of the transaction tests:
// fast path on, retries armed, durable recovery modeled.
func txnCfg(shards int) ShardedConfig {
	return ShardedConfig{
		Config: Config{
			FastPath:      true,
			QuorumTimeout: 8,
			Retransmit:    6,
			RetryTimeout:  60,
			Recovery:      true,
		},
		Shards: shards,
	}
}

// buildTxnCluster wires a transaction-layer cluster over a fresh network.
func buildTxnCluster(t *testing.T, seed int64, nClients int, shcfg ShardedConfig, tcfg TxnConfig) (*TxnCluster, *msgnet.Network, []msgnet.ProcID) {
	t.Helper()
	w := msgnet.New(msgnet.Config{Seed: seed, MinDelay: 1, MaxDelay: 2})
	clients := ids("c", nClients)
	tc, err := BuildTxn(w, clients, ids("s", 3), shcfg, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	return tc, w, clients
}

// distinctShardKeys returns one key per shard, in shard order, so tests
// can build transactions that provably span shards.
func distinctShardKeys(t *testing.T, shards int) []string {
	t.Helper()
	keys := make([]string, shards)
	found := 0
	for i := 0; found < shards && i < 10000; i++ {
		k := fmt.Sprintf("k%d", i)
		if s := ShardOf(k, shards); keys[s] == "" {
			keys[s], found = k, found+1
		}
	}
	if found < shards {
		t.Fatalf("could not cover %d shards", shards)
	}
	return keys
}

// assertTxnSafe asserts the transaction-layer safety properties: no
// pending transactions or unresolved shards, consistent logs, and every
// history — per-key register and merged component alike — linearizable.
// It returns the check summary for further assertions.
func assertTxnSafe(t *testing.T, name string, tc *TxnCluster) TxnCheck {
	t.Helper()
	if n := tc.UnresolvedShards(); n != 0 {
		t.Fatalf("%s: %d unresolved (txn, shard) pairs", name, n)
	}
	if p := tc.PendingTxns(); len(p) != 0 {
		t.Fatalf("%s: pending transactions %v", name, p)
	}
	if err := tc.CheckConsistency(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	sum, err := tc.CheckTxnLinearizable(context.Background())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return sum
}

// A cross-shard MultiPut commits atomically and a later MultiGet reads
// both writes back through its own committed transaction; a single-key
// read on an entangled key flows through the merged component history.
func TestTxnCommitAndReadBack(t *testing.T) {
	tc, _, clients := buildTxnCluster(t, 1, 3, txnCfg(2), TxnConfig{RecoveryTimeout: 500})
	keys := distinctShardKeys(t, 2)
	tc.SubmitTxnAt(clients[0], Txn{ID: "x1", Ops: []TxnOp{
		{Kind: TxnWrite, Key: keys[0], Value: "a1"},
		{Kind: TxnWrite, Key: keys[1], Value: "b1"},
	}}, 0)
	tc.SubmitTxnAt(clients[1], Txn{ID: "x2", Ops: []TxnOp{
		{Kind: TxnRead, Key: keys[0]},
		{Kind: TxnRead, Key: keys[1]},
	}}, 200)
	tc.SubmitAt(clients[2], GetCmd(keys[0], "g1"), 400)
	tc.Run(100_000_000)

	st := tc.TxnStats()
	if st.Committed != 2 || st.Resolved() != 2 {
		t.Fatalf("stats %+v: want 2 commits", st)
	}
	committed, reads, ok := tc.TxnOutcome("x2")
	if !ok || !committed {
		t.Fatalf("x2 outcome: committed=%v ok=%v", committed, ok)
	}
	if want := []trace.Value{"a1", "b1"}; !reflect.DeepEqual(reads, want) {
		t.Fatalf("x2 reads %q, want %q", reads, want)
	}
	sum := assertTxnSafe(t, "commit", tc)
	if sum.Components != 1 || sum.ComponentOps != 3 || sum.FastPathKeys != 0 {
		t.Fatalf("summary %+v: want one component with 3 ops", sum)
	}
}

// A CAS whose condition fails aborts the whole transaction and leaves no
// per-key effect: later reads — and the checker's TxnKV no-op semantics
// — observe the pre-transaction values. A CAS with the right expectation
// commits.
func TestTxnCASAbortLeavesNoEffect(t *testing.T) {
	tc, _, clients := buildTxnCluster(t, 3, 3, txnCfg(2), TxnConfig{RecoveryTimeout: 500})
	keys := distinctShardKeys(t, 2)
	tc.SubmitAt(clients[0], SetCmd(keys[0], "a0"), 0)
	tc.SubmitAt(clients[0], SetCmd(keys[1], "b0"), 0)
	tc.SubmitTxnAt(clients[1], Txn{ID: "x1", Ops: []TxnOp{
		{Kind: TxnCAS, Key: keys[0], Value: "a1", Expect: "stale"},
		{Kind: TxnWrite, Key: keys[1], Value: "b1"},
	}}, 200)
	tc.SubmitTxnAt(clients[2], Txn{ID: "x2", Ops: []TxnOp{
		{Kind: TxnRead, Key: keys[0]},
		{Kind: TxnRead, Key: keys[1]},
	}}, 400)
	tc.SubmitTxnAt(clients[1], Txn{ID: "x3", Ops: []TxnOp{
		{Kind: TxnCAS, Key: keys[0], Value: "a1", Expect: "a0"},
		{Kind: TxnWrite, Key: keys[1], Value: "b1"},
	}}, 600)
	tc.SubmitTxnAt(clients[2], Txn{ID: "x4", Ops: []TxnOp{
		{Kind: TxnRead, Key: keys[0]},
		{Kind: TxnRead, Key: keys[1]},
	}}, 800)
	tc.Run(100_000_000)

	st := tc.TxnStats()
	if st.AbortedCondition != 1 || st.Committed != 3 {
		t.Fatalf("stats %+v: want 1 condition abort, 3 commits", st)
	}
	if committed, _, ok := tc.TxnOutcome("x1"); !ok || committed {
		t.Fatalf("x1 outcome: committed=%v ok=%v, want abort", committed, ok)
	}
	// The aborted x1 left no trace: x2 still reads the seeded values.
	if _, reads, _ := tc.TxnOutcome("x2"); !reflect.DeepEqual(reads, []trace.Value{"a0", "b0"}) {
		t.Fatalf("x2 reads %q after aborted CAS, want pre-txn values", reads)
	}
	// The committed x3 is fully visible.
	if _, reads, _ := tc.TxnOutcome("x4"); !reflect.DeepEqual(reads, []trace.Value{"a1", "b1"}) {
		t.Fatalf("x4 reads %q after committed CAS, want new values", reads)
	}
	assertTxnSafe(t, "cas", tc)
}

// Two overlapping transactions on the same keys resolve — commit or
// deadlock-avoidance conflict abort, never a wedge — and the merged
// history stays linearizable.
func TestTxnConflictingTxnsResolve(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		tc, _, clients := buildTxnCluster(t, seed, 3, txnCfg(2), TxnConfig{RecoveryTimeout: 500})
		keys := distinctShardKeys(t, 2)
		tc.SubmitTxnAt(clients[0], Txn{ID: "x1", Ops: []TxnOp{
			{Kind: TxnWrite, Key: keys[0], Value: "a1"},
			{Kind: TxnWrite, Key: keys[1], Value: "b1"},
		}}, 0)
		tc.SubmitTxnAt(clients[1], Txn{ID: "x2", Ops: []TxnOp{
			{Kind: TxnWrite, Key: keys[1], Value: "b2"},
			{Kind: TxnWrite, Key: keys[0], Value: "a2"},
		}}, 0)
		tc.Run(100_000_000)
		st := tc.TxnStats()
		if st.Resolved() != 2 {
			t.Fatalf("seed %d: stats %+v: want both resolved", seed, st)
		}
		if st.Committed == 0 {
			t.Fatalf("seed %d: stats %+v: want at least one commit", seed, st)
		}
		assertTxnSafe(t, fmt.Sprintf("seed=%d", seed), tc)
	}
}

// A coordinator that crashes permanently before its prepares leave the
// node must not leave the transaction undecided: the recovery watchdog
// aborts it and drives abort markers through a surviving client, and
// later single-key traffic on the transaction's keys proceeds normally.
// (The shards see outcome markers for a transaction whose prepares never
// arrive — the marker-before-prepare path.)
func TestTxnCoordinatorCrashRecoveryAbort(t *testing.T) {
	tc, w, clients := buildTxnCluster(t, 2, 3, txnCfg(2), TxnConfig{RecoveryTimeout: 100})
	if err := (faults.Plan{Crashes: []faults.Crash{{Proc: clients[0], At: 5}}}).Apply(w); err != nil {
		t.Fatal(err)
	}
	keys := distinctShardKeys(t, 2)
	tc.SubmitTxnAt(clients[0], Txn{ID: "x1", Ops: []TxnOp{
		{Kind: TxnWrite, Key: keys[0], Value: "a1"},
		{Kind: TxnWrite, Key: keys[1], Value: "b1"},
	}}, 10)
	tc.SubmitAt(clients[1], SetCmd(keys[0], "u1"), 150)
	tc.SubmitAt(clients[2], GetCmd(keys[0], "g1"), 200)
	tc.SubmitAt(clients[1], SetCmd(keys[1], "u2"), 150)
	tc.SubmitAt(clients[2], GetCmd(keys[1], "g2"), 200)
	tc.Run(100_000_000)

	st := tc.TxnStats()
	if st.AbortedRecovery != 1 || st.Resolved() != 1 {
		t.Fatalf("stats %+v: want 1 recovery abort", st)
	}
	// The four singles and the two abort markers landed; the prepares
	// died with the coordinator.
	if got := tc.Stats().Landed; got != 6 {
		t.Fatalf("landed %d, want 6", got)
	}
	sum := assertTxnSafe(t, "recovery", tc)
	if sum.Ops != 5 { // 4 singles + the aborted composite op
		t.Fatalf("checked %d ops, want 5", sum.Ops)
	}
}

// Sweeping the coordinator's permanent-crash instant across the whole
// prepare/decide window: whatever the cut point — before the prepares,
// mid-prepare with locks already taken on one shard, or after the
// decision — the transaction resolves, no shard wedges (every background
// single of the other clients still responds), and the merged history is
// linearizable. The sweep must exercise both outcomes, including at least
// one abort that had to release held locks.
//
// A prepare the coordinator sent before it crashed still decides — the
// servers accepted it, and a blocked client's fill decides what they
// accepted — so an idle coordinator's transaction commits once its
// prepares are out. The busy arm queues a command of the coordinator's
// own on the second shard first, which holds that prepare back: a crash
// in between leaves the first shard locked until the watchdog aborts.
func TestTxnCoordinatorCrashSweep(t *testing.T) {
	var committed, recovered, lockedAbort int
	for _, busy := range []bool{false, true} {
		for crashAt := msgnet.Time(1); crashAt <= 50; crashAt++ {
			shcfg := txnCfg(2)
			shcfg.RetainResults = true
			tc, w, clients := buildTxnCluster(t, 7, 3, shcfg, TxnConfig{RecoveryTimeout: 60})
			if err := (faults.Plan{Crashes: []faults.Crash{{Proc: clients[0], At: crashAt}}}).Apply(w); err != nil {
				t.Fatal(err)
			}
			keys := distinctShardKeys(t, 2)
			if busy {
				tc.SubmitAt(clients[0], SetCmd(keys[1], "c1"), 10)
			}
			tc.SubmitTxnAt(clients[0], Txn{ID: "x1", Ops: []TxnOp{
				{Kind: TxnWrite, Key: keys[0], Value: "a1"},
				{Kind: TxnWrite, Key: keys[1], Value: "b1"},
			}}, 10)
			for j := msgnet.Time(0); j < 8; j++ {
				tc.SubmitAt(clients[1], SetCmd(keys[0], fmt.Sprintf("u%d", j)), 5*j)
				tc.SubmitAt(clients[2], GetCmd(keys[1], fmt.Sprintf("g%d", j)), 5*j+2)
			}
			tc.Run(100_000_000)

			name := fmt.Sprintf("busy=%v crashAt=%d", busy, crashAt)
			st := tc.TxnStats()
			if st.Resolved() != 1 {
				t.Fatalf("%s: stats %+v: unresolved transaction", name, st)
			}
			sum := assertTxnSafe(t, name, tc)
			singles := 0
			for _, r := range tc.Results() {
				if _, keyed := CmdKey(r.Cmd); keyed && r.Client != clients[0] {
					singles++
				}
			}
			if singles != 16 || sum.Ops < 17 { // 16 singles + 1 composite: nothing wedged
				t.Fatalf("%s: %d of 16 singles responded, checked %d ops", name, singles, sum.Ops)
			}
			xs := tc.txns["x1"]
			switch {
			case st.Committed == 1:
				committed++
			case st.AbortedRecovery == 1:
				recovered++
				if len(xs.locked) > 0 {
					lockedAbort++
				}
			}
		}
	}
	t.Logf("committed=%d recovered=%d lockedAbort=%d", committed, recovered, lockedAbort)
	if committed == 0 || recovered == 0 || lockedAbort == 0 {
		t.Fatalf("sweep coverage too thin: committed=%d recovered=%d lockedAbort=%d",
			committed, recovered, lockedAbort)
	}
}

// A coordinator that crashes mid-transaction but restarts re-drives its
// queued prepares; if the watchdog aborted the transaction during the
// downtime, the late prepares replay against the decided abort (no vote,
// no lock) and every submission still lands exactly once.
func TestTxnCoordinatorRestart(t *testing.T) {
	tc, w, clients := buildTxnCluster(t, 3, 3, txnCfg(2), TxnConfig{RecoveryTimeout: 60})
	if err := (faults.Plan{Crashes: []faults.Crash{{Proc: clients[0], At: 12, RestartAt: 200}}}).Apply(w); err != nil {
		t.Fatal(err)
	}
	keys := distinctShardKeys(t, 2)
	tc.SubmitTxnAt(clients[0], Txn{ID: "x1", Ops: []TxnOp{
		{Kind: TxnWrite, Key: keys[0], Value: "a1"},
		{Kind: TxnWrite, Key: keys[1], Value: "b1"},
	}}, 10)
	tc.SubmitAt(clients[1], GetCmd(keys[0], "g1"), 300)
	tc.SubmitAt(clients[2], GetCmd(keys[1], "g2"), 300)
	tc.Run(100_000_000)

	st := tc.TxnStats()
	if st.Resolved() != 1 {
		t.Fatalf("stats %+v: unresolved transaction", st)
	}
	ss := tc.Stats()
	if ss.Landed != ss.Submitted {
		t.Fatalf("landed %d of %d submitted", ss.Landed, ss.Submitted)
	}
	assertTxnSafe(t, "restart", tc)
}

// With no transactions submitted, the transaction layer is pure
// bookkeeping: a TxnCluster run produces the exact same effective
// schedule and stats as a plain ShardedCluster under the same seed and
// workload.
func TestTxnScheduleDigestParityNoTxns(t *testing.T) {
	wl := workload.KeyedOpts{Clients: 3, Ops: 240, Keys: 16, ReadFrac: 0.4}
	run := func(txnLayer bool) (*ShardedCluster, *msgnet.Network) {
		w := msgnet.New(msgnet.Config{Seed: 5, MinDelay: 1, MaxDelay: 2})
		clients := ids("c", wl.Clients)
		var sc *ShardedCluster
		if txnLayer {
			tc, err := BuildTxn(w, clients, ids("s", 3), txnCfg(2), TxnConfig{RecoveryTimeout: 100})
			if err != nil {
				t.Fatal(err)
			}
			sc = tc.ShardedCluster
		} else {
			var err error
			sc, err = BuildSharded(w, clients, ids("s", 3), txnCfg(2))
			if err != nil {
				t.Fatal(err)
			}
		}
		ops := workload.Keyed(rand.New(rand.NewSource(5)), wl)
		perClient := make([][]Command, wl.Clients)
		for _, op := range ops {
			perClient[op.Client] = append(perClient[op.Client], cmdOf(op))
		}
		for i, c := range clients {
			sc.SubmitPaced(c, perClient[i], 0, 8)
		}
		sc.Run(100_000_000)
		return sc, w
	}
	plain, wp := run(false)
	layered, wl2 := run(true)
	if d0, d1 := wp.ScheduleDigest(), wl2.ScheduleDigest(); d0 != d1 {
		t.Fatalf("schedule digests differ: plain %x, txn layer %x", d0, d1)
	}
	if s0, s1 := plain.Stats(), layered.Stats(); !reflect.DeepEqual(s0, s1) {
		t.Fatalf("stats differ:\nplain %+v\ntxn   %+v", s0, s1)
	}
}

// txnOf converts a generated workload transaction to the SMR layer's
// form; the workload encodes "expect unset" as the empty string.
func txnOf(s *workload.TxnSpec) *Txn {
	ops := make([]TxnOp, len(s.Ops))
	for i, o := range s.Ops {
		switch {
		case o.Read:
			ops[i] = TxnOp{Kind: TxnRead, Key: o.Key}
		case o.CAS:
			exp := o.Expect
			if exp == "" {
				exp = string(adt.Bottom)
			}
			ops[i] = TxnOp{Kind: TxnCAS, Key: o.Key, Value: o.Value, Expect: exp}
		default:
			ops[i] = TxnOp{Kind: TxnWrite, Key: o.Key, Value: o.Value}
		}
	}
	return &Txn{ID: s.ID, Ops: ops}
}

// mixedItems splits a generated mixed workload into per-client feeds.
func mixedItems(ops []workload.MixedOp, clients int) [][]MixedItem {
	per := make([][]MixedItem, clients)
	for _, op := range ops {
		it := MixedItem{}
		if op.Txn != nil {
			it.Txn = txnOf(op.Txn)
		} else {
			it.Cmd = cmdOf(op.KeyedOp)
		}
		per[op.Client] = append(per[op.Client], it)
	}
	return per
}

// runMixed drives a zipf-contended mixed workload through a transaction
// cluster, with an optional fault plan.
func runMixed(t *testing.T, seed int64, shcfg ShardedConfig, tcfg TxnConfig, wl workload.MixedOpts,
	pace msgnet.Time, plan func(clients, servers []msgnet.ProcID) faults.Plan) *TxnCluster {
	t.Helper()
	w := msgnet.New(msgnet.Config{Seed: seed, MinDelay: 1, MaxDelay: 2})
	clients := ids("c", wl.Clients)
	servers := ids("s", 3)
	tc, err := BuildTxn(w, clients, servers, shcfg, tcfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		if err := plan(clients, servers).Apply(w); err != nil {
			t.Fatal(err)
		}
	}
	per := mixedItems(workload.Mixed(rand.New(rand.NewSource(seed)), wl), wl.Clients)
	for i, c := range clients {
		tc.SubmitMixedPaced(c, per[i], 0, pace)
	}
	tc.Run(100_000_000)
	return tc
}

// sameShape asserts that the post-hoc and the online check of one run saw
// the same histories: the two modes of the cluster's keyed histories
// differ only in when they check, never in what.
func sameShape(t *testing.T, name string, post, online TxnCheck) {
	t.Helper()
	type shape struct {
		traces, components, componentKeys, fastPathKeys int
		ops, largest                                    int64
	}
	of := func(s TxnCheck) shape {
		return shape{s.Traces, s.Components, s.ComponentKeys, s.FastPathKeys, s.Ops, s.LargestComponent}
	}
	if p, o := of(post), of(online); p != o {
		t.Fatalf("%s: post hoc checked %+v, online %+v", name, p, o)
	}
}

// Property: a contended zipf mixed workload — 25% multi-key transactions
// across 4 shards — lands every submission, resolves every transaction,
// and every component's merged history and every fast-path key's
// register history is linearizable, with the post-hoc and streaming
// online checkers agreeing.
func TestTxnMixedPropertyLinearizable(t *testing.T) {
	wl := workload.MixedOpts{
		KeyedOpts: workload.KeyedOpts{Clients: 4, Ops: 1200, Keys: 32, ReadFrac: 0.4, ZipfS: 1.3},
		TxnFrac:   0.25, TxnKeys: 24, Groups: 8,
	}
	for seed := int64(1); seed <= 2; seed++ {
		var sums [2]TxnCheck
		for i, online := range []bool{false, true} {
			shcfg := txnCfg(4)
			shcfg.OnlineCheck = online
			tc := runMixed(t, seed, shcfg, TxnConfig{RecoveryTimeout: 3000}, wl, 3, nil)
			name := fmt.Sprintf("online=%v seed=%d", online, seed)
			st := tc.TxnStats()
			if st.Started == 0 || st.Resolved() != st.Started {
				t.Fatalf("%s: stats %+v: want all started transactions resolved", name, st)
			}
			if st.Committed == 0 {
				t.Fatalf("%s: stats %+v: want some commits", name, st)
			}
			ss := tc.Stats()
			if ss.Landed != ss.Submitted {
				t.Fatalf("%s: landed %d of %d submitted", name, ss.Landed, ss.Submitted)
			}
			sums[i] = assertTxnSafe(t, name, tc)
			if sums[i].Ops != int64(wl.Ops) {
				t.Fatalf("%s: checked %d ops, want %d", name, sums[i].Ops, wl.Ops)
			}
			if sums[i].Components == 0 || sums[i].FastPathKeys == 0 {
				t.Fatalf("%s: summary %+v: want both merged components and fast-path keys", name, sums[i])
			}
		}
		sameShape(t, fmt.Sprintf("seed=%d", seed), sums[0], sums[1])
	}
}

// Property: the same mixed workload under rolling coordinator
// crash-restarts stays safe — restarts re-drive queued submissions, the
// watchdog resolves transactions orphaned by a mid-prepare crash, and
// everything stays linearizable, post hoc and online alike.
func TestTxnMixedCoordinatorCrashes(t *testing.T) {
	wl := workload.MixedOpts{
		KeyedOpts: workload.KeyedOpts{Clients: 4, Ops: 800, Keys: 24, ReadFrac: 0.4, ZipfS: 1.3},
		TxnFrac:   0.25, TxnKeys: 18, Groups: 6,
	}
	plan := func(clients, servers []msgnet.ProcID) faults.Plan {
		return faults.Plan{Crashes: faults.RollingRestart(clients, 60, 90, 40)}
	}
	for seed := int64(1); seed <= 2; seed++ {
		var sums [2]TxnCheck
		for i, online := range []bool{false, true} {
			shcfg := txnCfg(4)
			shcfg.OnlineCheck = online
			tc := runMixed(t, seed, shcfg, TxnConfig{RecoveryTimeout: 200}, wl, 3, plan)
			name := fmt.Sprintf("online=%v seed=%d", online, seed)
			st := tc.TxnStats()
			if st.Started == 0 || st.Resolved() != st.Started {
				t.Fatalf("%s: stats %+v: want all started transactions resolved", name, st)
			}
			ss := tc.Stats()
			if ss.Landed != ss.Submitted {
				t.Fatalf("%s: landed %d of %d submitted", name, ss.Landed, ss.Submitted)
			}
			sums[i] = assertTxnSafe(t, name, tc)
			if sums[i].Ops != int64(wl.Ops) {
				t.Fatalf("%s: checked %d ops, want %d", name, sums[i].Ops, wl.Ops)
			}
		}
		sameShape(t, fmt.Sprintf("seed=%d", seed), sums[0], sums[1])
	}
}

package smr

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
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
				if slices.ContainsFunc(xs.parts, func(p txnPart) bool { return p.locked }) {
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

// splitTxnSlot is a transaction-protocol entry as splitParseTxnCmd reads
// it, operations split out.
type splitTxnSlot struct {
	prep   bool
	id     string
	shard  int
	ops    []txnSlotOp
	commit bool
}

// splitParseTxnCmd, splitTxnCmdShard, joinPrepCmd and joinTxnKVInput are
// the codecs that split and join strings, kept as the oracles of the
// in-place ones.
func splitParseTxnCmd(cmd Command) (ts splitTxnSlot, ok bool) {
	parts := strings.Split(string(cmd), cmdSep)
	if len(parts) < 4 {
		return ts, false
	}
	shard, err := strconv.Atoi(parts[2])
	if err != nil {
		return ts, false
	}
	ts.id, ts.shard = parts[1], shard
	switch {
	case parts[0] == "txp" && len(parts) == 4:
		ts.prep = true
		for _, enc := range strings.Split(parts[3], txnOpSep) {
			fs := strings.Split(enc, txnCmdSep)
			var op txnSlotOp
			switch {
			case len(fs) == 3 && fs[0] == "r":
				op = txnSlotOp{kind: 'r', key: fs[1]}
			case len(fs) == 4 && fs[0] == "w":
				op = txnSlotOp{kind: 'w', key: fs[1], val: fs[3]}
			case len(fs) == 5 && fs[0] == "c":
				op = txnSlotOp{kind: 'c', key: fs[1], expect: fs[3], val: fs[4]}
			default:
				return ts, false
			}
			if op.idx, err = strconv.Atoi(fs[2]); err != nil {
				return ts, false
			}
			ts.ops = append(ts.ops, op)
		}
		return ts, true
	case parts[0] == "txo" && len(parts) == 5:
		ts.commit = parts[3] == "c"
		return ts, ts.commit || parts[3] == "a"
	}
	return ts, false
}

func splitTxnCmdShard(cmd Command) (int, bool) {
	s := string(cmd)
	if !strings.HasPrefix(s, "txp"+cmdSep) && !strings.HasPrefix(s, "txo"+cmdSep) {
		return 0, false
	}
	parts := strings.SplitN(s, cmdSep, 4)
	if len(parts) < 4 {
		return 0, false
	}
	shard, err := strconv.Atoi(parts[2])
	return shard, err == nil
}

func joinPrepCmd(id string, shard int, ops []TxnOp, idx []int) Command {
	enc := make([]string, len(idx))
	for i, j := range idx {
		op := ops[j]
		switch op.Kind {
		case TxnRead:
			enc[i] = "r" + txnCmdSep + op.Key + txnCmdSep + strconv.Itoa(j)
		case TxnWrite:
			enc[i] = "w" + txnCmdSep + op.Key + txnCmdSep + strconv.Itoa(j) + txnCmdSep + op.Value
		default:
			enc[i] = "c" + txnCmdSep + op.Key + txnCmdSep + strconv.Itoa(j) + txnCmdSep + op.Expect + txnCmdSep + op.Value
		}
	}
	return Command("txp" + cmdSep + id + cmdSep + strconv.Itoa(shard) + cmdSep + strings.Join(enc, txnOpSep))
}

func joinTxnKVInput(txn Txn, commit bool) trace.Value {
	enc := make([]string, len(txn.Ops))
	for i, op := range txn.Ops {
		switch op.Kind {
		case TxnRead:
			enc[i] = adt.TxnOpRead(op.Key)
		case TxnWrite:
			enc[i] = adt.TxnOpWrite(op.Key, trace.Value(op.Value))
		default:
			enc[i] = adt.TxnOpCAS(op.Key, trace.Value(op.Expect), trace.Value(op.Value))
		}
	}
	return adt.Tag(adt.TxnInput(enc, !commit), txn.ID)
}

// randTxn draws a transaction of one to five operations on distinct keys
// of a small key space, with values of one to three digits.
func randTxn(r *rand.Rand, id string) Txn {
	txn := Txn{ID: id}
	for _, k := range r.Perm(12)[:1+r.Intn(5)] {
		op := TxnOp{Kind: TxnOpKind(r.Intn(3)), Key: fmt.Sprintf("k%d", k)}
		if op.Kind != TxnRead {
			op.Value = strconv.Itoa(r.Intn(1000))
		}
		if op.Kind == TxnCAS {
			op.Expect = []string{adt.Bottom, "", "7"}[r.Intn(3)]
		}
		txn.Ops = append(txn.Ops, op)
	}
	return txn
}

// TestTxnCmdMatchesSplitCodec: the in-place transaction codecs agree
// with the split-and-join ones on random transactions. A prepare and the
// composite TxnKV input are built byte for byte as before; a
// transaction's participants are the shards and operation indices the
// maps kept; and parseTxnCmd and txnCmdShard read every command as the
// split parser does, on well-formed prepares and outcome markers and on
// copies mutated by deleting, doubling or swapping in separators and
// field bytes, and foreign commands. A transaction with a duplicate key
// is refused.
func TestTxnCmdMatchesSplitCodec(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	tc, _, clients := buildTxnCluster(t, 1, 2, txnCfg(4), TxnConfig{})
	bytes := []string{cmdSep, txnCmdSep, txnOpSep, "r", "w", "c", "a", "-", "9", ""}
	var parsed, prepares int
	check := func(cmd Command) {
		got, ok := parseTxnCmd(cmd)
		want, wantOK := splitParseTxnCmd(cmd)
		if ok != wantOK {
			t.Fatalf("parseTxnCmd(%q) ok = %v, want %v", cmd, ok, wantOK)
		}
		if ok {
			parsed++
			var ops []txnSlotOp
			for rest, more := got.ops, got.prep; more; {
				var op txnSlotOp
				op, rest, more, _ = cutPrepOp(rest)
				ops = append(ops, op)
			}
			if g := (splitTxnSlot{got.prep, got.id, got.shard, ops, got.commit}); !reflect.DeepEqual(g, want) {
				t.Fatalf("parseTxnCmd(%q) = %+v, want %+v", cmd, g, want)
			}
		}
		gs, gok := txnCmdShard(cmd)
		ws, wok := splitTxnCmdShard(cmd)
		if gok != wok || gok && gs != ws {
			t.Fatalf("txnCmdShard(%q) = %d, %v, want %d, %v", cmd, gs, gok, ws, wok)
		}
	}
	for _, cmd := range []Command{"", noop, "txp", "txo", SetCmd("k", "v"), GetCmd("k", "g"), DelCmd("k"),
		"txp" + cmdSep + "x" + cmdSep + "1", "txo" + cmdSep + "x" + cmdSep + "+1" + cmdSep + "c" + cmdSep + "s.0"} {
		check(cmd)
	}
	for i := 0; i < 2000; i++ {
		txn := randTxn(r, fmt.Sprintf("x%d", i))
		for commit := range 2 {
			if got, want := txnKVInput(txn, commit == 1), joinTxnKVInput(txn, commit == 1); got != want {
				t.Fatalf("txnKVInput(%+v) = %q, want %q", txn, got, want)
			}
		}
		st := tc.registerTxn(clients[0], txn, 0)
		shardOps := map[int][]int{}
		for j, op := range txn.Ops {
			k := ShardOf(op.Key, len(tc.shards))
			shardOps[k] = append(shardOps[k], j)
		}
		shards := make([]int, 0, len(shardOps))
		for k := range shardOps {
			shards = append(shards, k)
		}
		sort.Ints(shards)
		if len(st.parts) != len(shards) {
			t.Fatalf("%+v: %d participants, want %d", txn, len(st.parts), len(shards))
		}
		var cmds []Command
		for n, p := range st.parts {
			if p.shard != shards[n] || !slices.Equal(p.ops, shardOps[p.shard]) {
				t.Fatalf("%+v: participant %d is shard %d ops %v, want shard %d ops %v", txn, n, p.shard, p.ops, shards[n], shardOps[shards[n]])
			}
			cmd := prepCmd(txn.ID, p.shard, txn.Ops, p.ops)
			if want := joinPrepCmd(txn.ID, p.shard, txn.Ops, p.ops); cmd != want {
				t.Fatalf("prepCmd = %q, want %q", cmd, want)
			}
			prepares++
			cmds = append(cmds, cmd, outcomeCmd(txn.ID, p.shard, r.Intn(2) == 0, clients[1], r.Intn(3)))
		}
		for _, cmd := range cmds {
			check(cmd)
			for m := 0; m < 4; m++ {
				b := []byte(cmd)
				at := r.Intn(len(b) + 1)
				switch in := bytes[r.Intn(len(bytes))]; r.Intn(3) {
				case 0: // delete a byte
					if at < len(b) {
						b = append(b[:at], b[at+1:]...)
					}
				case 1: // insert one
					b = append(b[:at], append([]byte(in), b[at:]...)...)
				default: // swap one in
					if at < len(b) {
						b = append(b[:at], append([]byte(in), b[at+1:]...)...)
					}
				}
				check(Command(b))
			}
		}
	}
	t.Logf("%d prepares built, %d commands parsed", prepares, parsed)
	if parsed < 6000 {
		t.Fatalf("%d commands parsed: the mutations left too few well-formed", parsed)
	}
	dup := Txn{ID: "dup", Ops: []TxnOp{{Kind: TxnRead, Key: "k1"}, {Kind: TxnWrite, Key: "k2", Value: "1"}, {Kind: TxnRead, Key: "k1"}}}
	defer func() {
		if recover() == nil {
			t.Fatal("a transaction with a duplicate key registered")
		}
	}()
	tc.registerTxn(clients[0], dup, 0)
}

// TestTxnCmdCodecAllocs pins the transaction path's codecs: a log entry
// parses without allocating, and a prepare, the composite TxnKV input
// and a commit output are each built in one allocation.
func TestTxnCmdCodecAllocs(t *testing.T) {
	txn := Txn{ID: "x7", Ops: []TxnOp{
		{Kind: TxnRead, Key: "k1"},
		{Kind: TxnWrite, Key: "k2", Value: "v2"},
		{Kind: TxnCAS, Key: "k3", Expect: adt.Bottom, Value: "v3"},
	}}
	prep := prepCmd(txn.ID, 1, txn.Ops, []int{0, 2})
	outcome := outcomeCmd(txn.ID, 1, true, "c1", 2)
	st := &txnState{spec: txn, reads: []trace.Value{"r1", "", ""}, decided: true, committed: true}
	for _, m := range []struct {
		name   string
		run    func()
		allocs float64
	}{
		{"parse prepare", func() { _, _ = parseTxnCmd(prep) }, 0},
		{"parse outcome", func() { _, _ = parseTxnCmd(outcome) }, 0},
		{"shard", func() { _, _ = txnCmdShard(prep) }, 0},
		{"prepare", func() { _ = prepCmd(txn.ID, 1, txn.Ops, []int{0, 2}) }, 1},
		{"input", func() { _ = txnKVInput(txn, true) }, 1},
		{"output", func() { _ = st.kvOutput() }, 1},
	} {
		if got := testing.AllocsPerRun(100, m.run); got != m.allocs {
			t.Errorf("%s: %.0f allocations, want %.0f", m.name, got, m.allocs)
		}
	}
}

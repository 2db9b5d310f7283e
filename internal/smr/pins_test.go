package smr

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"repro/internal/faults"
	"repro/internal/msgnet"
	"repro/internal/trace"
	"repro/internal/workload"
)

// benchProto is the protocol configuration bench/'s two smr workloads
// share (its smrProto); the pins run the same shapes at ~1/50 scale.
var benchProto = Config{FastPath: true, QuorumTimeout: 8, Retransmit: 6, CompactEvery: 64}

// schedulePin is everything a run's schedule decides, as one comparable
// line: the effective-schedule digest, the network's message counters,
// the virtual end time and the landing aggregates.
func schedulePin(w *msgnet.Network, st ShardedStats, end msgnet.Time) string {
	sent, delivered, dropped := w.Stats()
	return fmt.Sprintf("digest=%016x sent=%d delivered=%d dropped=%d duplicated=%d end=%d landed=%d latency=%d",
		w.ScheduleDigest(), sent, delivered, dropped, w.Duplicated(), end, st.Landed, st.TotalLatency)
}

// The pins' shapes run paced: client i starts at i·pace/clients. They
// end by t≈3 000; the horizon turns a change that stalls a slot forever
// into a failed pin instead of a run that never ends.
const (
	pinPace    = 12
	pinHorizon = 1 << 16
)

// kvShape is bench's smr-kv at 1/50 scale: 4 clients, 3 servers, 8
// shards, online fast-path sessions, fault-free, network seed 1. per is
// kvFeeds' output; tune, when given, changes the seed and configuration.
func kvShape(t *testing.T, per [][]Command, tune ...func(*msgnet.Config, *ShardedConfig)) (*msgnet.Network, *ShardedCluster, msgnet.Time) {
	ncfg := msgnet.Config{Seed: 1, MinDelay: 1, MaxDelay: 2}
	shcfg := ShardedConfig{Config: benchProto, Shards: 8, OnlineCheck: true}
	for _, f := range tune {
		f(&ncfg, &shcfg)
	}
	w := msgnet.New(ncfg)
	clients := ids("c", len(per))
	sc, err := BuildSharded(w, clients, ids("s", 3), shcfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range clients {
		sc.SubmitPaced(c, per[i], msgnet.Time(i)*pinPace/4, pinPace)
	}
	return w, sc, sc.Run(pinHorizon)
}

func kvFeeds(ops int) [][]Command {
	per := make([][]Command, 4)
	for _, op := range workload.Keyed(rand.New(rand.NewSource(1)),
		workload.KeyedOpts{Clients: 4, Ops: ops, ReadFrac: 0.3}) {
		per[op.Client] = append(per[op.Client], cmdOf(op))
	}
	return per
}

// txnFaultsItems is the number of mixed items txnFaultsFeeds generates.
const txnFaultsItems = 800

// txnFaultsShape is bench's smr-txn-faults at 1/50 scale: zipf keys, 20%
// multi-key transactions, retries, durable recovery, rolling coordinator
// crash–restarts, recovery watchdog, network seed 1. per is
// txnFaultsFeeds' output; tune as for kvShape.
func txnFaultsShape(t *testing.T, per [][]MixedItem, tune ...func(*msgnet.Config, *ShardedConfig)) (*msgnet.Network, *TxnCluster, msgnet.Time) {
	ncfg := msgnet.Config{Seed: 1, MinDelay: 1, MaxDelay: 2}
	proto := benchProto
	proto.RetryTimeout = 60
	proto.Recovery = true
	shcfg := ShardedConfig{Config: proto, Shards: 8, OnlineCheck: true}
	for _, f := range tune {
		f(&ncfg, &shcfg)
	}
	w := msgnet.New(ncfg)
	clients := ids("c", len(per))
	tc, err := BuildTxn(w, clients, ids("s", 3), shcfg, TxnConfig{RecoveryTimeout: 1000})
	if err != nil {
		t.Fatal(err)
	}
	plan := faults.Plan{Crashes: faults.RollingRestart(clients, 500, 2*txnFaultsItems/6, 300)}
	if err := plan.Apply(w); err != nil {
		t.Fatal(err)
	}
	for i, c := range clients {
		tc.SubmitMixedPaced(c, per[i], msgnet.Time(i)*pinPace/6, pinPace)
	}
	return w, tc, tc.Run(pinHorizon)
}

func txnFaultsFeeds() [][]MixedItem {
	return mixedItems(workload.Mixed(rand.New(rand.NewSource(1)), workload.MixedOpts{
		KeyedOpts: workload.KeyedOpts{Clients: 6, Ops: txnFaultsItems, Keys: 256, ReadFrac: 0.4, ZipfS: 1.2},
		TxnFrac:   0.2, TxnKeys: 64, Groups: 16,
	}), 6)
}

// The literals below must never move with a performance change: pooling,
// interning and lazy construction may change how much work an event
// costs, not which events run, when, or between whom (DESIGN.md,
// decision 22). They were re-recorded on purpose when clients began
// proposing only in the slots they own (decision 30), which changed
// which messages the protocol sends: smr-kv went from 72 156 messages
// and 42 467 delays of summed latency to 28 511 and 11 515; at this scale
// smr-txn-faults keeps one client down for most of the run, and the
// other clients then fill its slots, so its summed latency rose (29 068
// to 40 051) while its messages fell (37 436 to 35 908).
func TestSchedulePins(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T) string
		want string
	}{
		{
			// bench's smr-kv (kvShape).
			name: "smr-kv",
			run: func(t *testing.T) string {
				w, sc, end := kvShape(t, kvFeeds(3000))
				assertSafe(t, "smr-kv", sc, 3000)
				return schedulePin(w, sc.Stats(), end)
			},
			want: "digest=bd547323230d105e sent=28511 delivered=28511 dropped=0 duplicated=0 end=1621 landed=3000 latency=11515",
		},
		{
			// bench's smr-txn-faults (txnFaultsShape).
			name: "smr-txn-faults",
			run: func(t *testing.T) string {
				w, tc, end := txnFaultsShape(t, txnFaultsFeeds())
				if st := tc.Stats(); st.Landed != st.Submitted {
					t.Fatalf("landed %d of %d log entries", st.Landed, st.Submitted)
				}
				assertTxnSafe(t, "smr-txn-faults", tc)
				return schedulePin(w, tc.Stats(), end) + fmt.Sprintf(" committed=%d", tc.TxnStats().Committed)
			},
			want: "digest=9415e4199ca01389 sent=35908 delivered=34664 dropped=0 duplicated=0 end=2915 landed=1466 latency=40051 committed=83",
		},
		{
			// Durable-snapshot recovery under a rolling server restart:
			// replicas rebuild their phase components from the store.
			name: "recovery-rolling-restart",
			run: func(t *testing.T) string {
				run := runChaos(t, 1, chaosCfg(true), chaosWL, 8,
					func(clients, servers []msgnet.ProcID) faults.Plan {
						return faults.Plan{Crashes: faults.RollingRestart(servers, 60, 80, 30)}
					})
				assertSafe(t, "recovery", run.sc, int64(chaosWL.Ops))
				return schedulePin(run.net, run.sc.Stats(), run.net.Now())
			},
			want: "digest=acfa9e24a41fd303 sent=2550 delivered=2431 dropped=0 duplicated=0 end=375 landed=240 latency=1506",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := c.run(t); got != c.want {
				t.Fatalf("schedule moved:\n got %s\nwant %s", got, c.want)
			}
		})
	}
}

// historyDigest hashes every history a post-hoc cluster retained, in
// first-seen order, components included: its key, whether it is one,
// and every action's kind, client, input and output.
func historyDigest(sc *ShardedCluster) string {
	h := fnv.New64a()
	n, comps := 0, 0
	sc.hist.Traces(func(key string, joined bool, t trace.Trace) {
		if joined {
			comps++
		}
		fmt.Fprintf(h, "%q %v %d\n", key, joined, len(t))
		for _, a := range t {
			fmt.Fprintf(h, "%d %q %q %q\n", a.Kind, a.Client, a.Input, a.Output)
		}
		n++
	})
	return fmt.Sprintf("%d histories, %d components, %016x", n, comps, h.Sum64())
}

// The recorded histories are pinned action for action: the post-hoc
// traces of TestOnlineCheckAgreesWithPostHoc's three seeds and of the
// smr-txn-faults shape, whose components hold the transactions' and the
// joined keys' instantaneous pairs. A change to how the recorder pairs a
// response with its invocation must leave them as they are.
func TestRecordedHistoriesPinned(t *testing.T) {
	wl := workload.KeyedOpts{Clients: 3, Ops: 300, Keys: 24, ReadFrac: 0.4}
	cfg := Config{FastPath: true, QuorumTimeout: 8, Retransmit: 6}
	for seed, want := range map[int64]string{
		1: "24 histories, 0 components, 19be51d76abefc8c",
		2: "24 histories, 0 components, 12a3d2b9bd14bc17",
		3: "24 histories, 0 components, b8bfd73139d8bff5",
	} {
		if got := historyDigest(runShardedCfg(t, seed, ShardedConfig{Config: cfg, Shards: 2}, wl)); got != want {
			t.Errorf("seed %d: histories %s, want %s", seed, got, want)
		}
	}
	_, tc, _ := txnFaultsShape(t, txnFaultsFeeds(), func(_ *msgnet.Config, c *ShardedConfig) { c.OnlineCheck = false })
	if got, want := historyDigest(tc.ShardedCluster), "83 histories, 16 components, f7d6e04a885ce642"; got != want {
		t.Errorf("smr-txn-faults: histories %s, want %s", got, want)
	}
}

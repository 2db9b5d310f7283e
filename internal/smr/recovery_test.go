package smr

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/mpcons"
	"repro/internal/msgnet"
	"repro/internal/workload"
)

// chaosRun couples a sharded cluster with its network so tests can read
// the effective-schedule digest and fault counters after the run.
type chaosRun struct {
	sc  *ShardedCluster
	net *msgnet.Network
}

// runChaos drives a paced keyed workload through a sharded cluster with
// an optional fault plan compiled onto the event queue before Run. The
// plan builder receives the client and server IDs so plans can name
// processes without duplicating the id conventions.
func runChaos(t *testing.T, seed int64, shcfg ShardedConfig, wl workload.KeyedOpts, pace msgnet.Time,
	plan func(clients, servers []msgnet.ProcID) faults.Plan) chaosRun {
	t.Helper()
	w := msgnet.New(msgnet.Config{Seed: seed, MinDelay: 1, MaxDelay: 2})
	clients := ids("c", wl.Clients)
	servers := ids("s", 3)
	sc, err := BuildSharded(w, clients, servers, shcfg)
	if err != nil {
		t.Fatal(err)
	}
	if plan != nil {
		if err := plan(clients, servers).Apply(w); err != nil {
			t.Fatal(err)
		}
	}
	ops := workload.Keyed(rand.New(rand.NewSource(seed)), wl)
	perClient := make([][]Command, wl.Clients)
	for _, op := range ops {
		perClient[op.Client] = append(perClient[op.Client], cmdOf(op))
	}
	for i, c := range clients {
		sc.SubmitPaced(c, perClient[i], 0, pace)
	}
	sc.Run(100_000_000)
	return chaosRun{sc: sc, net: w}
}

// assertSafe asserts the three safety properties every faulty run must
// keep: all submissions landed (exactly once, by the recorder's
// duplicate-slot check), per-shard logs agree, and every per-key history
// is linearizable.
func assertSafe(t *testing.T, name string, sc *ShardedCluster, wantLanded int64) {
	t.Helper()
	st := sc.Stats()
	if st.Landed != wantLanded {
		t.Fatalf("%s: landed %d/%d", name, st.Landed, wantLanded)
	}
	if err := sc.CheckConsistency(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if _, err := sc.CheckLinearizable(context.Background()); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// chaosCfg is the shared configuration of the fault tests: fast path on,
// retries armed, durable-snapshot recovery modeled, results retained for
// equivalence comparisons.
func chaosCfg(recovery bool) ShardedConfig {
	return ShardedConfig{
		Config: Config{
			FastPath:      true,
			QuorumTimeout: 8,
			Retransmit:    6,
			RetryTimeout:  60,
			Recovery:      recovery,
		},
		Shards:        2,
		RetainResults: true,
	}
}

var chaosWL = workload.KeyedOpts{Clients: 3, Ops: 240, Keys: 16, ReadFrac: 0.4}

// Recovery on (volatile components wiped on restart, rebuilt from
// durable snapshots) and recovery off (all state survives a restart)
// must produce byte-identical runs under the same crash schedule: the
// snapshot-completeness oracle. Any protocol state missing from a
// Snapshot/Restore pair would change a recovered replica's replies and
// split the schedules.
func TestRecoveryModelEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		plan := func(clients, servers []msgnet.ProcID) faults.Plan {
			return faults.Plan{Crashes: faults.RollingRestart(servers, 60, 80, 30)}
		}
		off := runChaos(t, seed, chaosCfg(false), chaosWL, 8, plan)
		on := runChaos(t, seed, chaosCfg(true), chaosWL, 8, plan)
		if d0, d1 := off.net.ScheduleDigest(), on.net.ScheduleDigest(); d0 != d1 {
			t.Fatalf("seed %d: schedule digests differ: recovery off %x, on %x", seed, d0, d1)
		}
		if s0, s1 := off.sc.Stats(), on.sc.Stats(); !reflect.DeepEqual(s0, s1) {
			t.Fatalf("seed %d: stats differ:\noff %+v\non  %+v", seed, s0, s1)
		}
		if r0, r1 := off.sc.Results(), on.sc.Results(); !reflect.DeepEqual(r0, r1) {
			t.Fatalf("seed %d: results differ", seed)
		}
		assertSafe(t, "equivalence", on.sc, int64(chaosWL.Ops))
	}
}

// Crash schedules that hit a replica while it is still catching up, or
// take the submission's coordinator (the client) down mid-flight, must
// not cost safety. Table-driven over seeds.
func TestCrashDuringRecovery(t *testing.T) {
	cases := []struct {
		name string
		plan func(clients, servers []msgnet.ProcID) faults.Plan
	}{
		{
			// s1 restarts and crashes again almost immediately: the second
			// crash lands while the replica is rebuilding slots lazily from
			// its durable store.
			name: "recrash-mid-catchup",
			plan: func(clients, servers []msgnet.ProcID) faults.Plan {
				return faults.Plan{Crashes: []faults.Crash{
					{Proc: servers[1], At: 80, RestartAt: 100},
					{Proc: servers[1], At: 104, RestartAt: 150},
				}}
			},
		},
		{
			// Overlapping downtime briefly leaves a single live server: no
			// majority, so progress stalls and the retry path must carry
			// every in-flight submission across the outage.
			name: "overlapping-server-downtime",
			plan: func(clients, servers []msgnet.ProcID) faults.Plan {
				return faults.Plan{Crashes: []faults.Crash{
					{Proc: servers[0], At: 60, RestartAt: 120},
					{Proc: servers[1], At: 80, RestartAt: 140},
				}}
			},
		},
		{
			// Crash of the coordinator: a client dies with a submission in
			// flight and re-drives it through the robust phase on restart
			// (client state is durable by the model).
			name: "coordinator-crash",
			plan: func(clients, servers []msgnet.ProcID) faults.Plan {
				return faults.Plan{Crashes: []faults.Crash{
					{Proc: clients[1], At: 90, RestartAt: 130},
				}}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				run := runChaos(t, seed, chaosCfg(true), chaosWL, 8, tc.plan)
				assertSafe(t, tc.name, run.sc, int64(chaosWL.Ops))
			}
		})
	}
}

// Duplicating links must never land a command twice: decision messages
// (Paxos decided broadcasts among clients) and accept replies are the
// dangerous duplicates, so the dup rules cover the client↔client and
// server→client directions.
func TestDuplicateDecisionDelivery(t *testing.T) {
	plan := func(clients, servers []msgnet.ProcID) faults.Plan {
		var p faults.Plan
		dup := msgnet.LinkRule{DupProb: 0.4}
		for _, a := range clients {
			for _, b := range clients {
				if a != b {
					p.Links = append(p.Links, faults.LinkFault{From: a, To: b, Rule: dup})
				}
			}
		}
		for _, s := range servers {
			p.Links = append(p.Links, faults.LinkFault{From: s, To: clients[0], Rule: dup})
		}
		return p
	}
	for seed := int64(1); seed <= 3; seed++ {
		run := runChaos(t, seed, chaosCfg(true), chaosWL, 8, plan)
		if run.net.Duplicated() == 0 {
			t.Fatalf("seed %d: dup links produced no duplicates", seed)
		}
		assertSafe(t, "duplicates", run.sc, int64(chaosWL.Ops))
	}
}

// A partition that cuts the clients off from a server majority forces
// every in-flight submission through the retry path; after it heals, all
// of them must land exactly once.
func TestClientRetryExactlyOnce(t *testing.T) {
	plan := func(clients, servers []msgnet.ProcID) faults.Plan {
		side := append(append([]msgnet.ProcID{}, clients...), servers[2])
		return faults.Plan{Partitions: []faults.Partition{
			faults.Split(side, servers[:2], 40, 160),
		}}
	}
	shcfg := chaosCfg(true)
	shcfg.RetryTimeout = 30
	for seed := int64(1); seed <= 3; seed++ {
		run := runChaos(t, seed, shcfg, chaosWL, 8, plan)
		st := run.sc.Stats()
		if st.Retries == 0 {
			t.Fatalf("seed %d: partition forced no retries", seed)
		}
		assertSafe(t, "retry", run.sc, int64(chaosWL.Ops))
		// Retries enter at the robust phase directly, which is not a phase
		// switch — the fast-path stat must still exclude them.
		for _, r := range run.sc.Results() {
			if r.Retries > 0 {
				if st.FastPath == st.Landed {
					t.Fatalf("seed %d: retried submissions counted as fast path", seed)
				}
				break
			}
		}
	}
}

// Identical seed and plan must reproduce the identical schedule — the
// replay guarantee fault plans are built on.
func TestChaosDeterminism(t *testing.T) {
	plan := func(clients, servers []msgnet.ProcID) faults.Plan {
		return faults.Plan{
			Crashes:    faults.RollingRestart(servers, 60, 80, 30),
			Partitions: []faults.Partition{faults.Split([]msgnet.ProcID{servers[0]}, servers[1:], 300, 360)},
			Links:      []faults.LinkFault{{From: clients[0], To: servers[0], Rule: msgnet.LinkRule{DropProb: 0.3}, Start: 20, Until: 200}},
		}
	}
	a := runChaos(t, 7, chaosCfg(true), chaosWL, 8, plan)
	b := runChaos(t, 7, chaosCfg(true), chaosWL, 8, plan)
	if d0, d1 := a.net.ScheduleDigest(), b.net.ScheduleDigest(); d0 != d1 {
		t.Fatalf("same seed+plan, different schedules: %x vs %x", d0, d1)
	}
	if !reflect.DeepEqual(a.sc.Stats(), b.sc.Stats()) {
		t.Fatalf("same seed+plan, different stats")
	}
	if !reflect.DeepEqual(a.sc.Results(), b.sc.Results()) {
		t.Fatalf("same seed+plan, different results")
	}
}

// Arming the fault machinery without using it — recovery on, a retry
// timeout too large to ever fire, an empty plan applied — must replay
// the plain baseline event for event. This is what lets the chaos
// harness reproduce the fault-free benchmarks exactly.
func TestFaultMachineryOffPreservesBaseline(t *testing.T) {
	base := ShardedConfig{
		Config: Config{FastPath: true, QuorumTimeout: 8, Retransmit: 6},
		Shards: 2, RetainResults: true,
	}
	armed := base
	armed.Recovery = true
	armed.RetryTimeout = 1_000_000 // armed on every attempt, never fires
	plain := runChaos(t, 5, base, chaosWL, 8, nil)
	chaos := runChaos(t, 5, armed, chaosWL, 8, func(clients, servers []msgnet.ProcID) faults.Plan {
		return faults.Plan{}
	})
	if d0, d1 := plain.net.ScheduleDigest(), chaos.net.ScheduleDigest(); d0 != d1 {
		t.Fatalf("armed fault machinery perturbed the schedule: %x vs %x", d0, d1)
	}
	if r0, r1 := plain.sc.Results(), chaos.sc.Results(); !reflect.DeepEqual(r0, r1) {
		t.Fatalf("armed fault machinery changed results")
	}
	s0, s1 := plain.sc.Stats(), chaos.sc.Stats()
	if !reflect.DeepEqual(s0, s1) {
		t.Fatalf("armed fault machinery changed stats:\nplain %+v\narmed %+v", s0, s1)
	}
}

// Server slots freed below the compaction floor are reused for new slots
// (replica.release), with their phase components reset by Restore. A
// reused slot must start as empty as a new one: were a phase of its
// previous slot left in comps, persist would file that phase's state
// under the new slot, and a restart would restore it there — another
// slot's Paxos acceptor. Compaction every 4 slots recycles slots
// thousands of times while rolling restarts keep the servers recovering
// from their durable stores. At every time unit each live phase must be
// bound to its own slot and phase, and its durable snapshot must be its
// own state; slots waiting on the free list hold no live phase.
func TestRecycledServerSlotsKeepNoState(t *testing.T) {
	shcfg := chaosCfg(true)
	shcfg.CompactEvery = 4
	wl := workload.KeyedOpts{Clients: 3, Ops: 2400, Keys: 16, ReadFrac: 0.4}
	w := msgnet.New(msgnet.Config{Seed: 1, MinDelay: 1, MaxDelay: 2})
	clients, servers := ids("c", wl.Clients), ids("s", 3)
	sc, err := BuildSharded(w, clients, servers, shcfg)
	if err != nil {
		t.Fatal(err)
	}
	var plan faults.Plan
	for start := msgnet.Time(60); start < 6000; start += 300 {
		plan.Crashes = append(plan.Crashes, faults.RollingRestart(servers, start, 80, 30)...)
	}
	if err := plan.Apply(w); err != nil {
		t.Fatal(err)
	}
	per := make([][]Command, wl.Clients)
	for _, op := range workload.Keyed(rand.New(rand.NewSource(1)), wl) {
		per[op.Client] = append(per[op.Client], cmdOf(op))
	}
	for i, c := range clients {
		sc.SubmitPaced(c, per[i], 0, 8)
	}

	owner := map[*serverSlot]int{}
	recycled, checks := 0, 0
	var check func()
	check = func() {
		checks++
		for _, sh := range sc.shards {
			for _, r := range sh.reps {
				for s := r.slots.lo; s < r.slots.hi; s++ {
					sl := r.slots.get(s)
					if sl == nil {
						continue
					}
					if prev, seen := owner[sl]; seen && prev != s {
						recycled++
					}
					owner[sl] = s
					for k, comp := range sl.comps {
						if comp == nil {
							continue
						}
						if env := sl.envs[k]; env.slot != s || env.phase != k || sl.spare[k] != nil {
							t.Fatalf("t=%d %s shard %d: phase %d of slot %d is bound to slot %d phase %d (spare %v)",
								w.Now(), r.id, sh.id, k, s, env.slot, env.phase, sl.spare[k] != nil)
						}
						if own, stored := comp.(mpcons.Durable).Snapshot(), sl.store.snaps[k]; own != stored {
							t.Fatalf("t=%d %s shard %d: slot %d phase %d stores %#v, holds %#v",
								w.Now(), r.id, sh.id, s, k, stored, own)
						}
					}
				}
				for _, sl := range r.free {
					if sl.comps != [maxPhases]mpcons.ServerPhase{} || *sl.store != (slotStore{}) {
						t.Fatalf("t=%d %s shard %d: a free slot holds live phases or snapshots", w.Now(), r.id, sh.id)
					}
				}
			}
		}
		if sc.stats.Landed < int64(wl.Ops) {
			w.At(w.Now()+1, check)
		}
	}
	w.At(0, check)
	// The feed ends at t≈6 400; a reuse that leaves stale protocol state
	// behind can stall slots forever, which must fail, not hang.
	sc.Run(20_000)
	assertSafe(t, "recycling", sc, int64(wl.Ops))
	if st := sc.Stats(); st.Switches == 0 {
		t.Fatal("no slot left the fast path: the backup phase was never recycled")
	}
	t.Logf("%d server slots reused across %d checks", recycled, checks)
	if recycled < 1000 {
		t.Fatalf("only %d server slots were reused", recycled)
	}
}

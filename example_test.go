package speclin_test

import (
	"context"
	"fmt"
	"maps"
	"slices"

	speclin "repro"
)

// agreed is a small fixed consensus trace: alice and bob propose
// concurrently and both decide alice's value. split is the same trace
// with bob deciding his own value instead.
var (
	agreed = speclin.Trace{
		speclin.Invoke("alice", 1, speclin.ProposeInput("blue")),
		speclin.Invoke("bob", 1, speclin.ProposeInput("green")),
		speclin.Response("alice", 1, speclin.ProposeInput("blue"), speclin.DecideOutput("blue")),
		speclin.Response("bob", 1, speclin.ProposeInput("green"), speclin.DecideOutput("blue")),
	}
	split = speclin.Trace{agreed[0], agreed[1], agreed[2],
		speclin.Response("bob", 1, speclin.ProposeInput("green"), speclin.DecideOutput("green"))}
)

// Check decides a whole trace in one call: the agreed trace holds, and
// the split one, in which bob decides his own value, does not.
func ExampleCheck() {
	spec := speclin.CheckSpec{Folder: speclin.ConsensusADT}
	for _, tr := range []speclin.Trace{agreed, split} {
		rep, err := speclin.Check(context.Background(), spec, tr)
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("%s (%d nodes)\n", rep.Verdict, rep.Nodes)
	}
	// Output:
	// linearizable (4 nodes)
	// not linearizable (4 nodes)
}

// A Session is fed one action at a time and reports the verdict on the
// trace so far: the refutation comes with the action that causes it.
func ExampleNewSession() {
	sess, err := speclin.NewSession(context.Background(), speclin.CheckSpec{Folder: speclin.ConsensusADT})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, a := range split {
		if err := sess.Feed(a); err != nil {
			fmt.Println(err)
			return
		}
		rep, err := sess.Report()
		if err != nil {
			fmt.Println(err)
			return
		}
		fmt.Printf("after %s %s: %s (%d nodes)\n", a.Kind, a.Client, rep.Verdict, rep.Nodes)
	}
	// Output:
	// after inv alice: linearizable (1 nodes)
	// after inv bob: linearizable (2 nodes)
	// after res alice: linearizable (3 nodes)
	// after res bob: not linearizable (4 nodes)
}

// The paper's §2.1 object: the Quorum fast path composed with the Paxos
// backup. Three clients propose concurrently on the simulated network;
// contention switches each to the backup on its own, with no agreement
// about switching (§2.3). The interface trace, switches projected away,
// is linearizable, one-shot and fed to a Session alike, and the backup
// phase's projection satisfies SLin(2,3) on its own: the intra-object
// composition theorem (Theorem 3) needs no more.
func ExampleNewQuorumBackupConsensus() {
	ctx := context.Background()
	net := speclin.NewNetwork(speclin.NetConfig{Seed: 7, MinDelay: 1, MaxDelay: 3})
	clients := []speclin.ProcID{"alice", "bob", "carol"}
	servers := []speclin.ProcID{"s1", "s2", "s3"}
	obj, err := speclin.NewQuorumBackupConsensus(net, clients, servers)
	if err != nil {
		fmt.Println(err)
		return
	}
	obj.ProposeAt("alice", "blue", 0)
	obj.ProposeAt("bob", "green", 0)
	obj.ProposeAt("carol", "red", 1)
	obj.Run(100_000)

	fmt.Println("operations:")
	for _, r := range obj.Results() {
		fmt.Printf("  %-6s proposed %-6s decided %-6s in %2d message delays (phase %d, %d switches)\n",
			r.Client, r.Value, r.Decision, r.Latency(), r.Phase, r.Switches)
	}

	tr := obj.Trace()
	plain := tr.Project(func(a speclin.Action) bool { return !a.IsSwi() })
	rep, err := speclin.Check(ctx, speclin.CheckSpec{Folder: speclin.ConsensusADT}, plain)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("\ntrace actions: %d, verdict: %s (%d nodes)\n", len(tr), rep.Verdict, rep.Nodes)

	sess, err := speclin.NewSession(ctx, speclin.CheckSpec{Folder: speclin.ConsensusADT})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, a := range plain {
		if err := sess.Feed(a); err != nil {
			fmt.Println(err)
			return
		}
	}
	srep, err := sess.Report()
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("incremental session agrees: %v\n", srep.Verdict == rep.Verdict)

	brep, err := speclin.Check(ctx, speclin.CheckSpec{
		Folder: speclin.ConsensusADT,
		Mode:   speclin.SLin,
		RInit:  speclin.ConsensusRInit,
		M:      2,
		N:      3,
	}, tr.ProjectSig(2, 3))
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("backup phase satisfies SLin(2,3): %v\n", brep.Verdict == speclin.Linearizable)
	// Output:
	// operations:
	//   carol  proposed red    decided red    in 13 message delays (phase 2, 1 switches)
	//   bob    proposed green  decided red    in 15 message delays (phase 2, 1 switches)
	//   alice  proposed blue   decided red    in 16 message delays (phase 2, 1 switches)
	//
	// trace actions: 9, verdict: linearizable (6 nodes)
	// incremental session agrees: true
	// backup phase satisfies SLin(2,3): true
}

// A key-value store on speculative state machine replication: each log
// slot is one Quorum+Paxos instance, and keyed commands are
// hash-partitioned across two logs. One replica crashes mid-run and the
// logs keep growing through the backup phase. With OnlineCheck every
// key's history is checked while the run executes, so
// CheckLinearizable only collects the sessions' verdicts.
func ExampleNewShardedSMR() {
	net := speclin.NewNetwork(speclin.NetConfig{Seed: 11, MinDelay: 1, MaxDelay: 2})
	clients := []speclin.ProcID{"web1", "web2"}
	servers := []speclin.ProcID{"r1", "r2", "r3"}
	cluster, err := speclin.NewShardedSMR(net, clients, servers, speclin.ShardedSMRConfig{
		Config:      speclin.SMRConfig{FastPath: true, QuorumTimeout: 8, Retransmit: 4},
		Shards:      2,
		OnlineCheck: true,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	cluster.SubmitAt("web1", speclin.SetCmd("user:1", "ada"), 0)
	cluster.SubmitAt("web2", speclin.SetCmd("user:2", "grace"), 0)
	cluster.SubmitAt("web1", speclin.SetCmd("lang", "go"), 8)
	cluster.SubmitAt("web2", speclin.SetCmd("user:2", "barbara"), 9)
	net.Crash("r1", 12)
	cluster.SubmitAt("web1", speclin.GetCmd("user:2", "g1"), 20)
	cluster.SubmitAt("web2", speclin.SetCmd("user:3", "katherine"), 22)
	cluster.Run(500_000)

	if err := cluster.CheckConsistency(); err != nil {
		fmt.Println("consistency violation:", err)
		return
	}
	fmt.Println("logs consistent across clients ✓")
	sum, err := cluster.CheckLinearizable(context.Background())
	if err != nil {
		fmt.Println("linearizability violation:", err)
		return
	}
	fmt.Printf("%d per-key histories linearizable (checked online, %d ops, %d search nodes)\n",
		sum.Traces, sum.Ops, sum.Nodes)

	// Materialize each shard's log from web1's view.
	kv := map[string]string{}
	for k := 0; k < cluster.Shards(); k++ {
		for key, v := range speclin.ApplyKV(cluster.Log(k, "web1")) {
			kv[key] = v
		}
	}
	fmt.Println("\nmaterialized store (web1's view):")
	for _, k := range slices.Sorted(maps.Keys(kv)) {
		fmt.Printf("  %-8s = %s\n", k, kv[k])
	}
	// Output:
	// logs consistent across clients ✓
	// 4 per-key histories linearizable (checked online, 6 ops, 12 search nodes)
	//
	// materialized store (web1's view):
	//   lang     = go
	//   user:1   = ada
	//   user:2   = barbara
	//   user:3   = katherine
}

// The §6 universal construction: a linearizable FIFO queue shared by
// three nodes, built on the speculative replicated log. Each output is
// the queue's output function applied to the log prefix at the
// operation's slot.
func ExampleNewReplicatedObject() {
	net := speclin.NewNetwork(speclin.NetConfig{Seed: 21, MinDelay: 1, MaxDelay: 3})
	q, err := speclin.NewReplicatedObject(net,
		[]speclin.ProcID{"n1", "n2", "n3"}, []speclin.ProcID{"r1", "r2", "r3"},
		speclin.QueueADT, speclin.SMRConfig{FastPath: true, QuorumTimeout: 10, Retransmit: 6})
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, op := range []struct {
		c  speclin.ProcID
		in speclin.Value
		at speclin.VTime
	}{
		{"n1", speclin.EnqInput("job-A"), 0},
		{"n2", speclin.EnqInput("job-B"), 0},
		{"n3", speclin.DeqInput(), 5},
		{"n1", speclin.DeqInput(), 25},
		{"n2", speclin.DeqInput(), 26},
	} {
		if err := q.InvokeAt(op.c, op.in, op.at); err != nil {
			fmt.Println(err)
			return
		}
	}
	q.Run(500_000)

	fmt.Println("replicated queue operations:")
	for _, r := range q.Results() {
		fmt.Printf("  %-3s %-12s → %-8s slot %d, %2d delays\n",
			r.Client, speclin.UntagInput(r.Input), r.Output, r.Slot, r.Latency())
	}
	res, err := q.CheckLinearizable(context.Background())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("queue trace linearizable: %v\n", res.OK)
	// Output:
	// replicated queue operations:
	//   n1  enq:job-A    → ok:      slot 0,  6 delays
	//   n2  enq:job-B    → ok:      slot 1,  8 delays
	//   n3  deq:         → v:job-A  slot 2,  6 delays
	//   n1  deq:         → v:job-B  slot 3,  6 delays
	//   n2  deq:         → v:⊥      slot 4,  7 delays
	// queue trace linearizable: true
}

// A replicated counter survives the crash of one of its three replicas:
// the operations after the crash take the backup path, and the trace
// stays linearizable.
func ExampleNewReplicatedObject_counter() {
	net := speclin.NewNetwork(speclin.NetConfig{Seed: 4, MinDelay: 1, MaxDelay: 2})
	ctr, err := speclin.NewReplicatedObject(net,
		[]speclin.ProcID{"a", "b"}, []speclin.ProcID{"r1", "r2", "r3"},
		speclin.CounterADT, speclin.SMRConfig{FastPath: true, QuorumTimeout: 10, Retransmit: 6})
	if err != nil {
		fmt.Println(err)
		return
	}
	net.Crash("r2", 10)
	for j := 0; j < 4; j++ {
		if err := ctr.InvokeAt("a", speclin.IncInput(), speclin.VTime(j*20)); err != nil {
			fmt.Println(err)
			return
		}
	}
	if err := ctr.InvokeAt("b", speclin.GetInput(), 90); err != nil {
		fmt.Println(err)
		return
	}
	ctr.Run(500_000)

	fmt.Println("replicated counter (one replica crashed at t=10):")
	for _, r := range ctr.Results() {
		fmt.Printf("  %-3s %-8s → %-6s %2d delays\n",
			r.Client, speclin.UntagInput(r.Input), r.Output, r.Latency())
	}
	res, err := ctr.CheckLinearizable(context.Background())
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("counter trace linearizable: %v\n", res.OK)
	// Output:
	// replicated counter (one replica crashed at t=10):
	//   a   inc:     → n:1     4 delays
	//   a   inc:     → n:2    21 delays
	//   a   inc:     → n:3    21 delays
	//   a   inc:     → n:4    20 delays
	//   b   get:     → n:4    15 delays
	// counter trace linearizable: true
}

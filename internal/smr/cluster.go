package smr

import (
	"fmt"

	"repro/internal/msgnet"
)

// Cluster is a single-log SMR deployment on a simulated network: one
// Shard whose client and replica engines are the network node handlers.
// This is the paper's §6 system; ShardedCluster composes N of these logs
// for partitioned workloads.
type Cluster struct {
	sh *Shard
}

// Build wires an SMR cluster into net.
func Build(net *msgnet.Network, clients, servers []msgnet.ProcID, cfg Config) (*Cluster, error) {
	if len(clients) == 0 || len(servers) == 0 {
		return nil, fmt.Errorf("smr: need clients and servers")
	}
	sh := newShard(net, 0, clients, servers, cfg)
	for _, id := range clients {
		net.AddNode(id, sh.byID[id])
	}
	for _, id := range servers {
		net.AddNode(id, sh.reps[id])
	}
	return &Cluster{sh: sh}, nil
}

// SetHooks registers observation callbacks: start fires when a submission
// begins executing (its invocation point under the client-sequential
// discipline), land when it resolves. Either may be nil.
func (cl *Cluster) SetHooks(start func(c msgnet.ProcID, cmd Command, at msgnet.Time), land func(SubmitResult)) {
	cl.sh.onStart = start
	cl.sh.onLand = land
}

// SubmitAt schedules client c to submit cmd at time t. Submissions queue
// per client and execute sequentially.
func (cl *Cluster) SubmitAt(c msgnet.ProcID, cmd Command, t msgnet.Time) {
	cl.sh.net.At(t, func() { cl.sh.byID[c].enqueue(cmd) })
}

// Run advances the simulation.
func (cl *Cluster) Run(maxTime msgnet.Time) msgnet.Time { return cl.sh.net.Run(maxTime) }

// Results returns landed submissions in completion order.
func (cl *Cluster) Results() []SubmitResult { return append([]SubmitResult{}, cl.sh.results...) }

// Log returns client c's view of the replicated log: the slots it knows,
// unknown ones simply absent. Slots that hold no command carry a value no
// client submitted (the log's no-op). With compaction enabled the trimmed
// prefix is absent too.
func (cl *Cluster) Log(c msgnet.ProcID) map[int]Command {
	out := map[int]Command{}
	for s, v := range cl.sh.byID[c].log {
		out[s] = v
	}
	return out
}

// CheckConsistency verifies SMR safety across all clients: no two clients
// disagree on a slot's decision, and every decided command was submitted
// by some client.
func (cl *Cluster) CheckConsistency() error { return cl.sh.checkConsistency() }

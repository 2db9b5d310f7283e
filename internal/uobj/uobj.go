// Package uobj implements the paper's universal construction (§6)
// operationally: a linearizable object of an ARBITRARY abstract data type
// built on the speculative message-passing substrate.
//
// §6 observes that the universal ADT — whose output function is the
// identity — abstracts generic state machine replication: "given a
// linearizable implementation, it suffices to apply the output function
// of another ADT A to the responses in order to obtain an implementation
// of A". Here the linearizable universal object is the speculative SMR
// log, a one-shard smr.ShardedCluster (per-slot Quorum fast path + Paxos
// backup, or Paxos alone): an operation's input is appended to the
// replicated log, and its output is the ADT's output function applied to
// the log prefix ending at its slot.
//
// Inputs are tagged per invocation (occurrence identity, required both by
// the log's slot-uniqueness and by the repeated-events subtleties of the
// checkers); ADT semantics ignore tags.
package uobj

import (
	"context"
	"fmt"
	"strconv"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/lin"
	"repro/internal/msgnet"
	"repro/internal/smr"
	"repro/internal/trace"
)

// OpResult describes one completed operation.
type OpResult struct {
	Client msgnet.ProcID
	// Input is the tagged ADT input as it appears in the log and trace.
	Input trace.Value
	// Output is f_T applied to the log prefix ending at the input's slot.
	Output trace.Value
	Slot   int
	Start  msgnet.Time
	End    msgnet.Time
}

// Latency returns the operation's latency in message delays.
func (r OpResult) Latency() msgnet.Time { return r.End - r.Start }

// Object is a linearizable replicated object of an arbitrary ADT.
type Object struct {
	f       adt.Folder
	cluster *smr.ShardedCluster
	rec     *core.Recorder
	seq     map[msgnet.ProcID]int
	// submitted holds every tagged input invoked, to tell operations from
	// the log's no-op slots.
	submitted map[trace.Value]bool
	results   []OpResult
}

// Build wires a replicated object of ADT f into net using a one-shard
// SMR cluster with the given configuration.
func Build(net *msgnet.Network, clients, servers []msgnet.ProcID, f adt.Folder, cfg smr.Config) (*Object, error) {
	cluster, err := smr.BuildSharded(net, clients, servers, smr.ShardedConfig{Config: cfg})
	if err != nil {
		return nil, err
	}
	o := &Object{
		f:         f,
		cluster:   cluster,
		rec:       core.NewRecorder(),
		seq:       map[msgnet.ProcID]int{},
		submitted: map[trace.Value]bool{},
	}
	cluster.SetHooks(
		func(c msgnet.ProcID, cmd smr.Command, at msgnet.Time) {
			o.rec.Record(trace.Invoke(trace.ClientID(c), 1, cmd))
		},
		func(r smr.SubmitResult) {
			out, err := o.outputAt(r.Client, r.Slot)
			if err != nil {
				panic(fmt.Sprintf("uobj: %v", err)) // ADT misuse; inputs were validated
			}
			o.rec.Record(trace.Response(trace.ClientID(r.Client), 1, r.Cmd, out))
			o.results = append(o.results, OpResult{
				Client: r.Client,
				Input:  r.Cmd,
				Output: out,
				Slot:   r.Slot,
				Start:  r.Start,
				End:    r.End,
			})
		},
	)
	return o, nil
}

// outputAt applies f to the operations in the client's log prefix
// [0..slot]. The SMR client knows every slot up to the one it lands in,
// so the prefix is complete; slots holding a value this object never
// submitted are the log's no-ops, not operations.
func (o *Object) outputAt(c msgnet.ProcID, slot int) (trace.Value, error) {
	log := o.cluster.Log(0, c)
	h := make(trace.History, 0, slot+1)
	for s := 0; s <= slot; s++ {
		cmd, ok := log[s]
		if !ok {
			return "", fmt.Errorf("hole at slot %d below landing slot %d", s, slot)
		}
		if o.submitted[cmd] {
			h = append(h, cmd)
		}
	}
	return o.f.Apply(h)
}

// InvokeAt schedules client c to invoke input in at time t. The input is
// validated against the ADT and tagged with a per-client occurrence id.
// Clients are sequential: concurrent invocations by one client queue.
func (o *Object) InvokeAt(c msgnet.ProcID, in trace.Value, t msgnet.Time) error {
	if !o.f.ValidInput(in) {
		return fmt.Errorf("uobj: %q is not a valid %s input", in, o.f.Name())
	}
	o.seq[c]++
	tagged := adt.Tag(in, string(c)+"#"+strconv.Itoa(o.seq[c]))
	o.submitted[tagged] = true
	o.cluster.SubmitAt(c, tagged, t)
	return nil
}

// Run advances the simulation.
func (o *Object) Run(maxTime msgnet.Time) msgnet.Time { return o.cluster.Run(maxTime) }

// Results returns completed operations in completion order.
func (o *Object) Results() []OpResult { return append([]OpResult{}, o.results...) }

// Trace returns the object-level trace (invocations and responses).
func (o *Object) Trace() trace.Trace { return o.rec.Trace() }

// CheckLinearizable verifies the recorded trace against the ADT with
// lin.Check: the ADT's fast-path core where one applies, the exact
// engine otherwise or under check.WithExact(true).
func (o *Object) CheckLinearizable(ctx context.Context, opts ...check.Option) (lin.Result, error) {
	return lin.Check(ctx, o.f, o.Trace(), opts...)
}

// Package speclin is the public API of this reproduction of
// "Speculative Linearizability" (Guerraoui, Kuncak, Losa; PLDI 2012).
//
// The package re-exports the building blocks a user composes:
//
//   - the trace model (Trace, Action, History) and abstract data types;
//   - the unified checking surface (checker API v2): one context-aware
//     Check(ctx, CheckSpec, trace, ...Option) deciding the paper's new
//     definition of linearizability, the classical one, or SLin(m,n),
//     plus incremental Sessions fed one action at a time;
//   - the phase-composition runtime (Phase, Composer) with the shared
//     memory phases of Figures 2 and 3 ready to plug in;
//   - the message-passing stack: simulated network, the Quorum fast path,
//     the Paxos backup, composed consensus objects and the sharded SMR
//     cluster, whose one-shard deployment is the paper's §6 replicated
//     log.
//
// # Checking a trace
//
// Name the ADT and property in a CheckSpec and call Check:
//
//	rep, err := speclin.Check(ctx,
//		speclin.CheckSpec{Folder: speclin.ConsensusADT}, tr,
//		speclin.WithBudget(1_000_000))
//	if err != nil { ... }                       // budget/cancellation: verdict Unknown
//	ok := rep.Verdict == speclin.Linearizable
//
// For SLin(m,n) set Mode, RInit and the phase range:
//
//	rep, err = speclin.Check(ctx, speclin.CheckSpec{
//		Folder: speclin.ConsensusADT, Mode: speclin.SLin,
//		RInit: speclin.ConsensusRInit, M: 2, N: 3,
//	}, tr.ProjectSig(2, 3))
//
// A Session checks a growing trace incrementally — feed actions as the
// system produces them instead of buffering a post-hoc history:
//
//	sess, _ := speclin.NewSession(ctx, speclin.CheckSpec{Folder: speclin.RegisterADT})
//	for _, a := range actions { _ = sess.Feed(a) }
//	rep, _ := sess.Report()
//
// WithBudget bounds the search nodes each fed action may spend — the
// check's memory too, since a frontier is no wider than twice what its
// feed spent (DESIGN.md, decision 34); a Lin or SLin check that exhausts
// it says where ("lin: search budget exhausted (feed 17: 8
// configurations, 5 open operations, 21 nodes)"), wrapping ErrBudget or
// ErrSLinBudget — match with errors.Is. One-shot and incremental checks are one engine per property
// (DESIGN.md, decisions 21 and 25), and both engines tell configurations
// apart by end state and unclaimed entries, so commuting commit orders
// are one configuration (decisions 20 and 29). Every check and session
// is sequential; independent traces may be checked concurrently, since
// the package's ADT folders are stateless.
//
// The package's Example functions are the runnable tours, each checked
// against its printed output (go test -run Example -v .); see
// DESIGN.md for the map from the paper's sections to packages (decision
// 11 records the API-v2 rationale).
package speclin

import (
	"context"
	"fmt"
	"time"

	"repro/internal/adt"
	"repro/internal/cascons"
	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/lin"
	"repro/internal/mpcons"
	"repro/internal/msgnet"
	"repro/internal/paxos"
	"repro/internal/quorum"
	"repro/internal/rcons"
	"repro/internal/slin"
	"repro/internal/smr"
	"repro/internal/trace"
	"repro/internal/uobj"
)

// Trace model.
type (
	// Trace is a finite sequence of interface actions (§3).
	Trace = trace.Trace
	// Action is an invocation, response or switch event.
	Action = trace.Action
	// History is a sequence of ADT inputs (§4.4).
	History = trace.History
	// ClientID identifies a client process.
	ClientID = trace.ClientID
	// Value is an opaque input/output/switch value.
	Value = trace.Value
)

// Action constructors.
var (
	// Invoke builds inv(c, phase, in).
	Invoke = trace.Invoke
	// Response builds res(c, phase, in, out).
	Response = trace.Response
	// SwitchAction builds swi(c, phase, in, v).
	SwitchAction = trace.Switch
)

// Abstract data types (Definition 4).
type (
	// ADT is a data type given by its output function.
	ADT = adt.ADT
	// Folder is an ADT with a canonical state machine.
	Folder = adt.Folder
)

// Built-in ADTs.
var (
	// ConsensusADT is Figure 1's consensus (inputs p:v, outputs d:v).
	ConsensusADT = adt.Consensus{}
	// RegisterADT is a read/write register.
	RegisterADT = adt.Register{}
	// CounterADT is a fetch-and-increment counter.
	CounterADT = adt.Counter{}
	// QueueADT is a FIFO queue.
	QueueADT = adt.Queue{}
	// MutexADT is a mutual-exclusion lock.
	MutexADT = adt.Mutex{}
	// StackADT is a LIFO stack.
	StackADT = adt.Stack{}
	// SetADT is an add/remove/has membership set.
	SetADT = adt.Set{}
	// UniversalADT is §6's identity-output ADT.
	UniversalADT = adt.Universal{}
)

// ADT value helpers.
var (
	// ProposeInput builds the consensus input p(v).
	ProposeInput = adt.ProposeInput
	// DecideOutput builds the consensus output d(v).
	DecideOutput = adt.DecideOutput
	// EnqInput and DeqInput build the queue inputs enq(v) and deq.
	EnqInput, DeqInput = adt.EnqInput, adt.DeqInput
	// IncInput and GetInput build the counter inputs inc and get.
	IncInput, GetInput = adt.IncInput, adt.GetInput
	// TagInput attaches an occurrence tag to an input (repeated events).
	TagInput = adt.Tag
	// UntagInput strips an input's occurrence tag, such as the one a
	// ReplicatedObject adds to each invocation.
	UntagInput = adt.Untag
)

// Checking (checker API v2; §4, §5, Appendix A — DESIGN.md, decision 11).
//
// One context-aware entry point, Check, decides all three properties; a
// CheckSpec names the ADT and the property (Mode), functional options
// tune the search, and every call returns one Report. NewSession opens an
// incremental check that is fed actions one at a time.

// Mode selects the property a Check decides.
type Mode int

const (
	// Lin is the paper's new definition of linearizability
	// (Definitions 5–15).
	Lin Mode = iota
	// ClassicalLin is the classical Herlihy–Wing definition as
	// formalized in Appendix A; by Theorem 1 it agrees with Lin on
	// unique-input traces. Checks are uncapped: traces of any length
	// decide (the former 63-operation representation cap fell with the
	// sparse placed-set engine, DESIGN.md decision 13).
	ClassicalLin
	// SLin is speculative linearizability SLin(m,n) (Definition 36);
	// the CheckSpec must carry RInit and the phase range M, N.
	SLin
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case Lin:
		return "lin"
	case ClassicalLin:
		return "classical"
	case SLin:
		return "slin"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// CheckSpec names what a Check decides: the ADT, the property mode, and —
// for SLin — the interpretation relation and phase range.
//
// ADT-specialized fast paths (DESIGN.md, decisions 15 and 36). For five
// folders, Lin checks and Lin/SLin(1,n) sessions run a near-linear
// specialized core instead of the exact search engines while the trace
// stays inside the core's fragment — pairwise-distinct input strings
// plus the conditions below — and fall back to the exact engines
// transparently the moment it leaves (verdicts agree either way;
// WithExact forces the exact engines):
//
//   - RegisterADT — Gibbons–Korach interval analysis; distinct write
//     values.
//   - ConsensusADT — single-decision analysis.
//   - QueueADT — matched enqueue/dequeue analysis, decided on every
//     prefix; no value enqueued while still queued, no empty dequeues.
//     Positive verdicts carry a witness up to a size cap.
//   - MutexADT — greedy alternation simulation plus counting rejects;
//     all-"ok:" outputs.
//   - StackADT — greedy LIFO simulation; distinct push values, no empty
//     pops.
//
// Everything else — other folders, SLin with M > 1, ClassicalLin, SLin
// one-shot checks — always runs the exact engines.
type CheckSpec struct {
	// Folder is the ADT the trace is checked against.
	Folder Folder
	// Mode selects the property (Lin by default).
	Mode Mode
	// RInit is the r_init interpretation relation (SLin only).
	RInit RInit
	// M, N delimit the speculation phase range (SLin only; 1 ≤ M < N).
	M, N int
}

// Functional options shared by Check and NewSession.
type Option = check.Option

var (
	// WithBudget bounds the search to n nodes per fed action (over the
	// whole search for ClassicalLin); exhausting it yields verdict
	// Unknown with ErrBudget/ErrSLinBudget.
	WithBudget = check.WithBudget
	// WithWitness toggles witness assembly on positive verdicts
	// (default on).
	WithWitness = check.WithWitness
	// WithTemporalAbortOrder selects the temporal Abort-Order reading
	// of the SLin checker (see the slin package documentation).
	WithTemporalAbortOrder = check.WithTemporalAbortOrder
	// WithExact forces the exact search engines on entry points that
	// would otherwise dispatch to an ADT-specialized fast-path checker
	// (see CheckSpec; DESIGN.md decision 15). Verdicts never depend on
	// it — it trades the fast paths' speed for the exact engines' node
	// accounting and witness generality.
	WithExact = check.WithExact
)

// WithFeedBudget does nothing: every budget is per fed action (DESIGN.md,
// decision 34). It stays because bench/ still passes it.
func WithFeedBudget(bool) Option { return func(*check.Settings) {} }

// Verdict is the three-valued outcome of a check.
type Verdict = check.Verdict

// Verdict values.
const (
	// Linearizable: the property holds.
	Linearizable = check.Linearizable
	// NotLinearizable: the property was refuted.
	NotLinearizable = check.NotLinearizable
	// Unknown: the check did not complete (budget, cancellation);
	// reported only alongside an error.
	Unknown = check.Unknown
)

// Report is the unified result of a Check or Session.
type Report struct {
	// Verdict is the three-valued outcome.
	Verdict Verdict
	// Reason documents a NotLinearizable verdict.
	Reason string
	// Witness holds a linearization function on positive Lin verdicts
	// (commit histories by response index).
	Witness LinWitness
	// Sequential holds the reordering witness on positive ClassicalLin
	// verdicts.
	Sequential Linearization
	// SLinWitnesses holds one witness per init-interpretation
	// combination on positive SLin verdicts, one-shot or from a Session.
	SLinWitnesses []SLinWitness
	// FailedInit holds the failing init interpretation on negative SLin
	// verdicts, when the failure is interpretation-specific.
	FailedInit map[int]History
	// Nodes is the number of search nodes spent (comparable across
	// modes and engines).
	Nodes int
	// Pruned is always 0 since DESIGN.md decision 29 deleted the last
	// reducer; it stays because bench/ still reports it.
	Pruned int
	// Wall is the wall-clock duration of the check.
	Wall time.Duration
}

// Witness types of the underlying checkers.
type (
	// LinWitness is a linearization function restricted to commit
	// indices.
	LinWitness = lin.Witness
	// Linearization is the classical sequential-reordering witness.
	Linearization = lin.Linearization
	// SLinWitness is one SLin witness (init interpretation, commit
	// histories, abort histories).
	SLinWitness = slin.Witness
)

// Checker error sentinels (match with errors.Is).
var (
	// ErrBudget reports that a lin check exceeded its search budget:
	// the verdict is Unknown, and a larger WithBudget may decide it.
	ErrBudget = lin.ErrBudget
	// ErrSLinBudget is ErrBudget's counterpart for the SLin checker.
	ErrSLinBudget = slin.ErrBudget
)

// Interpretation relations for the built-in case studies.
type RInit = slin.RInit

var (
	// ConsensusRInit interprets switch value v as histories starting
	// with p(v) (§2.4).
	ConsensusRInit = slin.ConsensusRInit{}
	// UniversalRInit maps an encoded history to itself (§6).
	UniversalRInit = slin.UniversalRInit{}
)

// Check decides spec's property for trace t. It is context-aware —
// cancellation or a context deadline aborts the search with the context's
// error and verdict Unknown — and configured by functional options. On
// budget exhaustion the Report carries verdict Unknown alongside the
// sentinel error.
func Check(ctx context.Context, spec CheckSpec, t Trace, opts ...Option) (Report, error) {
	start := time.Now()
	var rep Report
	var err error
	switch spec.Mode {
	case Lin:
		var r lin.Result
		r, err = lin.Check(ctx, spec.Folder, t, opts...)
		rep = Report{Verdict: linVerdict(r, err), Reason: r.Reason, Witness: r.Witness, Nodes: r.Nodes}
	case ClassicalLin:
		var r lin.Result
		r, err = lin.CheckClassical(ctx, spec.Folder, t, opts...)
		rep = Report{Verdict: linVerdict(r, err), Reason: r.Reason, Sequential: r.Sequential, Nodes: r.Nodes}
	case SLin:
		var r slin.Result
		r, err = slin.Check(ctx, spec.Folder, spec.RInit, spec.M, spec.N, t, opts...)
		rep = Report{Verdict: linVerdict(lin.Result{OK: r.OK}, err), Reason: r.Reason,
			SLinWitnesses: r.Witnesses, FailedInit: r.FailedInit, Nodes: r.Nodes}
	default:
		return Report{}, fmt.Errorf("speclin: unknown check mode %v", spec.Mode)
	}
	rep.Wall = time.Since(start)
	return rep, err
}

// linVerdict maps a native result/error pair to the three-valued verdict.
func linVerdict(r lin.Result, err error) Verdict {
	switch {
	case err != nil:
		return Unknown
	case r.OK:
		return Linearizable
	default:
		return NotLinearizable
	}
}

// Session is an incremental check: actions are fed one at a time and the
// growing trace is re-checked from persistent search state instead of
// from scratch (lin.Session / slin.Session document the engine). Sessions
// exist for Lin and SLin; ClassicalLin has no per-action search structure
// (use Lin — Theorem 1 gives agreement on unique-input traces).
type Session struct {
	mode  Mode
	start time.Time
	lin   *lin.Session
	slin  *slin.Session
}

// NewSession opens an incremental check of an initially empty trace.
func NewSession(ctx context.Context, spec CheckSpec, opts ...Option) (*Session, error) {
	s := &Session{mode: spec.Mode, start: time.Now()}
	switch spec.Mode {
	case Lin:
		s.lin = lin.NewSession(ctx, spec.Folder, opts...)
	case SLin:
		sl, err := slin.NewSession(ctx, spec.Folder, spec.RInit, spec.M, spec.N, opts...)
		if err != nil {
			return nil, err
		}
		s.slin = sl
	case ClassicalLin:
		return nil, fmt.Errorf("speclin: ClassicalLin has no incremental session; use Lin (Theorem 1)")
	default:
		return nil, fmt.Errorf("speclin: unknown check mode %v", spec.Mode)
	}
	return s, nil
}

// Feed appends one action to the trace under check. Errors (budget
// exhaustion, cancellation, out-of-signature actions) are terminal;
// ill-formed traces yield a NotLinearizable verdict instead.
func (s *Session) Feed(a Action) error {
	if s.mode == Lin {
		return s.lin.Feed(a)
	}
	return s.slin.Feed(a)
}

// Report returns the verdict for the trace fed so far.
func (s *Session) Report() (Report, error) {
	var rep Report
	var err error
	if s.mode == Lin {
		var r lin.Result
		r, err = s.lin.Result()
		rep = Report{Verdict: linVerdict(r, err), Reason: r.Reason, Witness: r.Witness, Nodes: r.Nodes}
	} else {
		var r slin.Result
		r, err = s.slin.Result()
		rep = Report{Verdict: linVerdict(lin.Result{OK: r.OK}, err), Reason: r.Reason,
			SLinWitnesses: r.Witnesses, FailedInit: r.FailedInit, Nodes: r.Nodes}
	}
	rep.Wall = time.Since(s.start)
	return rep, err
}

// Phase composition runtime (§2.3, §5.1).
type (
	// Phase is one speculation phase of a concurrent object.
	Phase = core.Phase
	// Outcome is a phase's resolution of an operation.
	Outcome = core.Outcome
	// Composer chains phases 1..n into one object.
	Composer = core.Composer
)

// Outcome constructors for Phase implementations.
var (
	// ReturnOutcome resolves an operation with a response.
	ReturnOutcome = core.ReturnOutcome
	// SwitchOutcome aborts an operation to the next phase.
	SwitchOutcome = core.SwitchOutcome
)

// NewObject composes speculation phases into a concurrent object whose
// trace is recorded for post-hoc checking.
func NewObject(phases ...Phase) (*Composer, error) { return core.NewComposer(phases...) }

// NewSharedMemoryConsensus builds the §2.5 object: the register-based
// RCons fast path (Figure 2) composed with the CAS-based CASCons backup
// (Figure 3), over native atomics. Inputs are consensus proposals
// (ProposeInput, optionally tagged); outputs are decisions.
func NewSharedMemoryConsensus() (*Composer, error) {
	return core.NewComposer(rcons.NewNativePhase(), cascons.NewNativePhase())
}

// Message-passing stack (§2.1).
type (
	// Network is the deterministic discrete-event network simulator.
	Network = msgnet.Network
	// NetConfig parameterizes the network (seed, delays, loss, dup).
	NetConfig = msgnet.Config
	// ProcID identifies a simulated process.
	ProcID = msgnet.ProcID
	// VTime is virtual time in message-delay units.
	VTime = msgnet.Time
	// ConsensusObject is a composed message-passing consensus object.
	ConsensusObject = mpcons.Object
	// OpResult describes one completed consensus operation.
	OpResult = mpcons.OpResult
	// PhaseProtocol is a message-passing speculation phase.
	PhaseProtocol = mpcons.PhaseProtocol
	// QuorumProtocol is the §2.1 fast path.
	QuorumProtocol = quorum.Protocol
	// PaxosProtocol is the §2.1 Backup.
	PaxosProtocol = paxos.Protocol
)

// NewNetwork creates a simulator.
func NewNetwork(cfg NetConfig) *Network { return msgnet.New(cfg) }

// NewConsensus wires a composed consensus object (e.g. Quorum + Paxos)
// into a network.
func NewConsensus(net *Network, clients, servers []ProcID, phases ...PhaseProtocol) (*ConsensusObject, error) {
	return mpcons.Build(net, clients, servers, phases...)
}

// NewQuorumBackupConsensus wires the paper's §2.1 composition with
// default protocol parameters.
func NewQuorumBackupConsensus(net *Network, clients, servers []ProcID) (*ConsensusObject, error) {
	return mpcons.Build(net, clients, servers, quorum.Protocol{}, paxos.Protocol{})
}

// State machine replication (E9, E12).
type (
	// SMRConfig selects the fast path, protocol tuning and log
	// compaction.
	SMRConfig = smr.Config
	// SubmitResult describes one landed log command.
	SubmitResult = smr.SubmitResult
	// ShardedSMRCluster hash-partitions keyed commands across N
	// independent replicated logs sharing one simulated network, records
	// per-key histories and checks them linearizable per shard.
	ShardedSMRCluster = smr.ShardedCluster
	// ShardedSMRConfig parameterizes a sharded deployment.
	ShardedSMRConfig = smr.ShardedConfig
	// ShardedSMRStats aggregates submission outcomes across shards.
	ShardedSMRStats = smr.ShardedStats
	// SMRHistoryCheck summarizes a per-key linearizability pass.
	SMRHistoryCheck = smr.HistoryCheck
)

// NewShardedSMR wires a sharded SMR cluster into a network: commands are
// routed to shards by key hash, each shard is an independent speculative
// replicated log, and per-key linearizability plus per-shard log
// agreement are checkable after the run (linearizability is local, so
// shard-by-shard checking loses no soundness).
func NewShardedSMR(net *Network, clients, servers []ProcID, cfg ShardedSMRConfig) (*ShardedSMRCluster, error) {
	return smr.BuildSharded(net, clients, servers, cfg)
}

// KV helpers for SMR logs.
var (
	// SetCmd encodes a KV write.
	SetCmd = smr.SetCmd
	// DelCmd encodes a KV delete.
	DelCmd = smr.DelCmd
	// GetCmd encodes a KV read with an occurrence tag.
	GetCmd = smr.GetCmd
	// CmdKey extracts the key a KV command operates on.
	CmdKey = smr.CmdKey
	// ShardOf maps a key to its shard.
	ShardOf = smr.ShardOf
	// ApplyKV folds a log into a map.
	ApplyKV = smr.ApplyKV
)

// ReplicatedObject is a linearizable object of an arbitrary ADT over
// speculative SMR — the §6 universal construction (see internal/uobj).
type ReplicatedObject = uobj.Object

// NewReplicatedObject builds a linearizable replicated object of ADT f:
// operations append to the replicated log and outputs are f's output
// function applied to the log prefix.
func NewReplicatedObject(net *Network, clients, servers []ProcID, f Folder, cfg SMRConfig) (*ReplicatedObject, error) {
	return uobj.Build(net, clients, servers, f, cfg)
}

// Package smr builds multi-shot State Machine Replication from the
// paper's speculative consensus: each log slot is an independent composed
// consensus instance (Quorum fast path + Paxos backup, or Paxos alone as
// the non-speculative baseline). This is the SMR use case that motivates
// the paper (§1, §6): a replicated log whose common-case latency is the
// fast path's two message delays, falling back per-slot under contention
// or faults without giving up safety.
//
// The engine is the Shard: ONE speculative replicated log with its own
// per-slot compositions, client submission queues and replica state.
// Cluster (cluster.go) deploys a single shard — the paper's §6 system
// verbatim — while ShardedCluster (sharded.go) hash-partitions keyed
// commands across N independent shards sharing one simulated network,
// which is sound for single-key traffic because linearizability is
// compositional per key (DESIGN.md, decision 10). TxnCluster (txn.go)
// layers cross-shard atomic transactions on top via two-phase commit
// over the per-shard logs; keys entangled by a transaction lose
// per-key locality, so the checker merges each txn-connected
// component's history and checks it against the adt.TxnKV product
// folder (decision 18).
//
// Clients submit commands; a submission repeatedly proposes the command
// in the lowest slot the client does not know the decision of, advancing
// past slots won by other clients, until the command lands. Phase
// protocols are reused verbatim from packages quorum and paxos through
// slot-scoped environment adapters. Logs compact behind a learned
// watermark (decision 14) and crashed processes replay from their
// durable model on restart (recovery.go).
package smr

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"repro/internal/mpcons"
	"repro/internal/msgnet"
	"repro/internal/paxos"
	"repro/internal/quorum"
	"repro/internal/trace"
)

// Command is an opaque replicated-log entry.
type Command = trace.Value

// Config parameterizes a cluster.
type Config struct {
	// FastPath enables the Quorum first phase; without it slots run
	// Paxos only (the baseline).
	FastPath bool
	// QuorumTimeout, Retransmit and PaxosRetry tune the phase protocols
	// (zero values use the protocol defaults).
	QuorumTimeout msgnet.Time
	Retransmit    msgnet.Time
	PaxosRetry    msgnet.Time
	// Recovery models crash–recovery servers. With it on, every replica
	// persists its server phase components' protocol state to a durable
	// per-slot store after each delivered message — within the same
	// atomic simulator event, i.e. write-ahead with respect to every
	// reply the component sent — and a replica revived by
	// msgnet.Network.Restart discards its live slot components and
	// rebuilds them lazily from the store. Off (the default) a restarted
	// replica resumes with its full in-memory state, modeling a process
	// whose entire state is durable; tests assert the two models produce
	// identical runs, which is what certifies the snapshots as complete.
	// Client state (log, queue, in-flight submission) is durable in both
	// models — clients are the log's learners and are assumed to persist
	// what they learn; a restarted client re-drives its in-flight
	// submission through the retry path (RetryTimeout).
	Recovery bool
	// RetryTimeout, when positive, bounds each submission attempt: a
	// client whose in-flight command has not resolved within the timeout
	// abandons the attempt's slot instance and re-proposes the same
	// command at its current frontier slot, from the first phase. It
	// must restart at phase 0 — a retry that entered the robust phase
	// directly would propose its own command into Paxos, and only values
	// derived from quorum accepts are safe there (a still-live fast path
	// can reach unanimity on another client's value and split the slot);
	// the quorum phase's own conflict/timeout switch rules degrade the
	// fresh attempt to the robust phase with a safe value, and the
	// re-broadcast doubles as a retransmission. The command itself is
	// the stable retry identity — command encodings are unique, the
	// dense-frontier discipline ensures a client passes a slot only
	// after learning its decision, and the sharded recorder's
	// duplicate-slot check verifies online that no retry ever lands
	// twice. Successive retries of one submission back off exponentially
	// (capped at RetryBackoffCap) with a small deterministic per-client
	// jitter.
	RetryTimeout msgnet.Time
	// RetryBackoffCap caps the exponential retry backoff (default
	// 8×RetryTimeout).
	RetryBackoffCap msgnet.Time
	// CompactEvery enables log compaction when positive: every time a
	// client's learned watermark (its first unknown slot) advances by
	// this many slots it broadcasts the watermark to the servers and
	// trims its own log below it; servers free per-slot replica state
	// below the minimum watermark reported by all clients (no client can
	// ever propose there again). This bounds memory by the compaction
	// window instead of the log length, at the cost of extra (tiny)
	// watermark messages. Each report also gossips the trimmed decisions
	// to the other clients (gossipEnvelope), so clients with drained
	// queues keep learning — and keep reporting — instead of pinning the
	// servers' floor at their last active slot. With compaction on, Log
	// and the retained per-client logs only cover the untrimmed suffix;
	// ShardedCluster checks log agreement online instead (sharded.go).
	CompactEvery int
}

// maxPhases is the most phases a slot composes (protos below): the
// per-slot hosts keep their per-phase state in arrays of this size so one
// allocation covers a slot instance.
const maxPhases = 2

func (c Config) protos() []mpcons.PhaseProtocol {
	px := paxos.Protocol{RetryBase: c.PaxosRetry}
	if !c.FastPath {
		return []mpcons.PhaseProtocol{px}
	}
	return []mpcons.PhaseProtocol{
		quorum.Protocol{Timeout: c.QuorumTimeout, Retransmit: c.Retransmit},
		px,
	}
}

// SubmitResult describes one landed command.
type SubmitResult struct {
	Client   msgnet.ProcID
	Cmd      Command
	Shard    int
	Slot     int
	Start    msgnet.Time
	End      msgnet.Time
	Attempts int // slots tried (including the winning one)
	Switches int // phase switches across all attempts
	Retries  int // timeout/restart re-proposals across all attempts
}

// Latency returns the submission's end-to-end latency.
func (r SubmitResult) Latency() msgnet.Time { return r.End - r.Start }

// Shard is one speculative replicated log: per-slot consensus
// compositions over a fixed set of clients and servers. Shards do not
// register themselves on the network — their owner (Cluster or
// ShardedCluster) routes messages and timers in, so several shards can
// share the same client and server processes.
type Shard struct {
	net     *msgnet.Network
	id      int
	cfg     Config
	protos  []mpcons.PhaseProtocol
	clients []msgnet.ProcID
	servers []msgnet.ProcID
	byID    map[msgnet.ProcID]*client
	reps    map[msgnet.ProcID]*replica

	keepResults bool
	results     []SubmitResult

	// Optional hooks, set before Run. onStart fires when a queued
	// submission actually begins (its invocation point); onLand when it
	// resolves; onLearn every time a client learns a slot's decision
	// (including decisions won by other clients), before any onLand for
	// that slot.
	onStart func(c msgnet.ProcID, cmd Command, at msgnet.Time)
	onLand  func(SubmitResult)
	onLearn func(c msgnet.ProcID, slot int, cmd Command)
	// submitted, when set, answers "was cmd submitted to this shard?" for
	// checkConsistency from the owner's own record of submissions (the
	// sharded recorder keeps one anyway); the clients then keep none.
	submitted func(cmd Command) bool
}

// newShard builds a shard's client and replica engines without touching
// the network's node table.
func newShard(net *msgnet.Network, id int, clients, servers []msgnet.ProcID, cfg Config) *Shard {
	sh := &Shard{
		net:         net,
		id:          id,
		cfg:         cfg,
		protos:      cfg.protos(),
		clients:     clients,
		servers:     servers,
		byID:        map[msgnet.ProcID]*client{},
		reps:        map[msgnet.ProcID]*replica{},
		keepResults: true,
	}
	for i, cid := range clients {
		sh.byID[cid] = &client{sh: sh, id: cid, index: i, log: map[int]Command{}, slots: map[int]*slotInstance{},
			retryTimer: retryTimerName(id)}
	}
	for _, sid := range servers {
		sh.reps[sid] = &replica{sh: sh, id: sid, slots: map[int]*serverSlot{}, wm: map[msgnet.ProcID]int{}}
	}
	return sh
}

// checkConsistency verifies SMR safety across the shard's clients: no two
// clients disagree on a slot's decision, every decided command was
// submitted by some client, and every command sits in at most one slot.
// With compaction enabled it only covers the untrimmed log suffixes; the
// sharded recorder performs the same checks online over every learn.
func (sh *Shard) checkConsistency() error {
	slotVal := map[int]Command{}
	submitted := sh.submitted
	if submitted == nil {
		set := map[Command]bool{}
		for _, c := range sh.byID {
			for _, cmd := range c.submittedCmds {
				set[cmd] = true
			}
		}
		submitted = func(cmd Command) bool { return set[cmd] }
	}
	var ids []msgnet.ProcID
	for id := range sh.byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		for s, v := range sh.byID[id].log {
			if prev, ok := slotVal[s]; ok && prev != v {
				return fmt.Errorf("smr: shard %d slot %d decided both %q and %q", sh.id, s, prev, v)
			}
			slotVal[s] = v
			if !submitted(v) {
				return fmt.Errorf("smr: shard %d slot %d decided unsubmitted command %q", sh.id, s, v)
			}
		}
	}
	// Every landed command sits in exactly one slot.
	bySlot := map[Command]int{}
	for s, v := range slotVal {
		if other, dup := bySlot[v]; dup {
			return fmt.Errorf("smr: shard %d command %q decided in slots %d and %d", sh.id, v, other, s)
		}
		bySlot[v] = s
	}
	return nil
}

// slotEnvelope routes a phase message of one slot instance of one shard.
type slotEnvelope struct {
	shard   int
	slot    int
	phase   int
	payload any
}

// learnedEnvelope carries a client's learned watermark to the servers
// (compaction only): every slot below watermark is decided and known to
// the sender, which will therefore never propose in those slots again.
type learnedEnvelope struct {
	shard     int
	watermark int
}

// gossipEnvelope carries decided commands from one client to another
// (compaction only): cmds[i] is the decision of slot first+i. A client
// piggybacks the decisions it is about to trim onto every watermark
// report, so clients with no in-flight submission — who otherwise learn
// nothing, since decisions arrive only through live slot instances —
// keep advancing their own watermarks instead of pinning the servers'
// compaction floor at their last active slot.
type gossipEnvelope struct {
	shard int
	first int
	cmds  []Command
}

// client is the per-shard SMR client engine: it serializes submissions
// and drives a consensus instance per attempted slot.
type client struct {
	sh    *Shard
	id    msgnet.ProcID
	index int
	node  *msgnet.Node

	// slots holds the live attempt's instance, keyed by its slot: at most
	// one, because attempt always follows retire. spare is the last
	// retired instance, which the next attempt reuses.
	slots map[int]*slotInstance
	spare *slotInstance
	log   map[int]Command
	// frontier caches the first slot not in log (the dense-prefix
	// length); log only grows at or above it, so it advances monotonically
	// and firstUnknownSlot is O(1) amortized.
	frontier int
	// reported and trimmed track the compaction watermark last broadcast
	// and the prefix already trimmed from log.
	reported int
	trimmed  int

	queue []Command
	// submittedCmds is every command ever enqueued, for checkConsistency;
	// not kept when the shard's owner answers that itself (Shard.submitted).
	submittedCmds []Command
	current       submission
	// retryTimer is the node-level name of the submission-progress timer.
	retryTimer string
	// timers[k] holds the node-level names of phase k's timers, built on
	// first use and shared by every attempt (see slotClientEnv.SetTimer).
	timers [maxPhases][]slotTimer
	// retries counts timeout/restart re-proposals across all submissions
	// (for stats).
	retries int64
}

// submission is the client's in-flight command; live is false while the
// client is idle.
type submission struct {
	live     bool
	cmd      Command
	start    msgnet.Time
	attempts int
	switches int
	retries  int
	slot     int // slot currently attempted
	// roundFloor carries the highest Paxos round any abandoned attempt of
	// this submission used, so retry attempts never reuse a ballot (see
	// mpcons.BallotTracker).
	roundFloor int64
}

// slotInstance is one attempt's consensus instance: the client-side phase
// components of one slot and the environments they act through. Only the
// phase in use is built up front; a later phase's component — the Paxos
// proposer that nine attempts in ten never reach — is built by comp on
// first use.
type slotInstance struct {
	comps   [maxPhases]mpcons.ClientPhase
	envs    [maxPhases]slotClientEnv
	phase   int
	pending bool
	// roundFloor is the submission's round floor when the attempt began,
	// applied to ballot-tracking components as they are built.
	roundFloor int64
}

// comp returns the instance's phase-k component, building it on first
// use: by Propose or SwitchIn, or by the first message or timer routed to
// the phase (a late decidedMsg must reach a proposer that has not been
// switched into yet, so that a later SwitchIn finds the decision).
func (c *client) comp(inst *slotInstance, k int) mpcons.ClientPhase {
	if inst.comps[k] == nil {
		comp := c.sh.protos[k].NewClient(&inst.envs[k])
		if bt, ok := comp.(mpcons.BallotTracker); ok && inst.roundFloor > 0 {
			bt.SetRoundFloor(inst.roundFloor)
		}
		inst.comps[k] = comp
	}
	return inst.comps[k]
}

func (c *client) Init(n *msgnet.Node) { c.node = n }

func (c *client) enqueue(cmd Command) {
	c.queue = append(c.queue, cmd)
	if c.sh.submitted == nil {
		c.submittedCmds = append(c.submittedCmds, cmd)
	}
	if !c.current.live {
		c.startNext()
	}
}

func (c *client) startNext() {
	if len(c.queue) == 0 {
		c.current = submission{}
		if c.sh.cfg.RetryTimeout > 0 {
			c.node.CancelTimer(c.retryTimer)
		}
		// Going idle: flush at a quarter of the usual window so the floor
		// stays within O(CompactEvery) of the log tip without broadcasting
		// per landed command when a paced feed briefly drains the queue
		// between submissions. From here on the client learns passively —
		// other clients' watermark reports gossip the decisions it is
		// missing (handleGossip), which keeps it reporting too.
		c.reportWatermark(true)
		return
	}
	cmd := c.queue[0]
	c.queue = c.queue[1:]
	c.current = submission{live: true, cmd: cmd, start: c.node.Now()}
	if c.sh.onStart != nil {
		c.sh.onStart(c.id, cmd, c.node.Now())
	}
	c.attempt(c.frontier)
}

// attempt proposes the current command in slot s, starting at the fast
// path (phase 0). Retries also restart at phase 0: only switch values
// derived from quorum accepts may enter the robust phase (see
// Config.RetryTimeout), so the fresh attempt relies on the quorum
// phase's own conflict/timeout rules to degrade safely.
//
// The attempt reuses the last retired instance. With the fast path it
// keeps that instance's Quorum client too, which is bound to &envs[0] and
// whose Propose resets every field it has; a Paxos proposer carries its
// round and any learned decision across Propose, so it never survives.
func (c *client) attempt(s int) {
	c.current.attempts++
	c.current.slot = s
	inst := c.spare
	c.spare = nil
	if inst == nil {
		inst = &slotInstance{}
	} else {
		q := inst.comps[0]
		if !c.sh.cfg.FastPath {
			q = nil
		}
		*inst = slotInstance{}
		inst.comps[0] = q
	}
	inst.pending, inst.roundFloor = true, c.current.roundFloor
	for k := range c.sh.protos {
		inst.envs[k] = slotClientEnv{client: c, slot: s, phase: k}
	}
	c.slots[s] = inst
	c.comp(inst, 0).Propose(c.current.cmd)
	c.armRetry()
}

// armRetry (re)arms the submission-progress timer with exponential
// backoff and deterministic jitter. One timer per (client, shard): it
// always covers the newest attempt of the current submission.
func (c *client) armRetry() {
	rt := c.sh.cfg.RetryTimeout
	if rt <= 0 {
		return
	}
	maxBackoff := c.sh.cfg.RetryBackoffCap
	if maxBackoff <= 0 {
		maxBackoff = 8 * rt
	}
	d := rt
	for i := 0; i < c.current.retries && d < maxBackoff; i++ {
		d *= 2
	}
	if d > maxBackoff {
		d = maxBackoff
	}
	// Deterministic jitter in [0, rt/4]: a pure function of the client,
	// shard and retry count — never the simulator's RNG streams, so
	// arming retries cannot perturb message scheduling.
	if span := int64(rt/4) + 1; span > 1 {
		h := uint64(c.index+1)*0x9e3779b97f4a7c15 + uint64(c.retries)*0x85ebca6b + uint64(c.sh.id)
		h ^= h >> 33
		d += msgnet.Time(int64(h % uint64(span)))
	}
	c.node.SetTimer(c.retryTimer, d)
}

// onRetryTimer abandons the in-flight attempt and re-proposes the
// current command at the frontier. Safe by construction: the abandoned
// instance is retired (its late messages are dropped), the replacement
// never reuses a Paxos ballot (roundFloor), and the command cannot land
// twice because the client only passes a slot after learning its
// decision.
func (c *client) onRetryTimer() {
	if !c.current.live || c.sh.cfg.RetryTimeout <= 0 {
		return
	}
	c.redoAttempt()
}

// redoAttempt is the shared retry/restart path: retire the in-flight
// slot instance (carrying its Paxos round floor) and re-propose at the
// frontier. The replacement arms the same timer names as the retired
// attempt — often at the same slot — but retire cancelled them, so no
// timer the retired attempt armed can fire into it
// (TestRedoAtSameSlotGetsNoStaleTimer). Late accept replies to the
// retired attempt do reach the replacement's quorum component when the
// slot is the same, which is sound: an accept carries the server's
// immutable first-received value, independent of which proposal
// solicited it.
func (c *client) redoAttempt() {
	c.retries++
	c.current.retries++
	if inst := c.slots[c.current.slot]; inst != nil {
		// Phases never built used no round above the floor they would have
		// started from.
		for _, comp := range inst.comps {
			if bt, ok := comp.(mpcons.BallotTracker); ok && bt.Round() > c.current.roundFloor {
				c.current.roundFloor = bt.Round()
			}
		}
		c.retire(c.current.slot, inst)
	}
	c.attempt(c.frontier)
}

// onRestart re-drives the in-flight submission after a client process
// restart: the crash cleared every timer and dropped in-flight replies,
// so the attempt would stall forever without a re-proposal. Client
// durable state (log, queue, current submission) survives by the
// recovery model (Config.Recovery).
func (c *client) onRestart() {
	if c.current.live {
		c.redoAttempt()
	}
}

// decide resolves slot s with value v (called from a phase component).
func (c *client) decide(s, phase int, v Command) {
	inst := c.slots[s]
	if inst == nil || !inst.pending || inst.phase != phase {
		return
	}
	inst.pending = false
	c.log[s] = v
	c.retire(s, inst)
	c.advanceFrontier()
	if c.sh.onLearn != nil {
		c.sh.onLearn(c.id, s, v)
	}
	if !c.current.live || c.current.slot != s {
		return
	}
	if v == c.current.cmd {
		result := SubmitResult{
			Client:   c.id,
			Cmd:      v,
			Shard:    c.sh.id,
			Slot:     s,
			Start:    c.current.start,
			End:      c.node.Now(),
			Attempts: c.current.attempts,
			Switches: c.current.switches,
			Retries:  c.current.retries,
		}
		if c.sh.keepResults {
			c.sh.results = append(c.sh.results, result)
		}
		if c.sh.onLand != nil {
			c.sh.onLand(result)
		}
		c.startNext()
		return
	}
	// Lost the slot to another command; try the next one.
	c.attempt(c.frontier)
}

// retire ends the slot's attempt: late messages for the slot are dropped
// from now on, and every phase timer name is cancelled — a generation
// bump, so no timer the attempt armed can fire into the next attempt,
// which arms the same names. The instance is kept as the spare.
func (c *client) retire(s int, inst *slotInstance) {
	for k := range c.timers {
		for _, t := range c.timers[k] {
			c.node.CancelTimer(t.full)
		}
	}
	delete(c.slots, s)
	c.spare = inst
}

// advanceFrontier moves the cached first-unknown-slot cursor and, with
// compaction enabled, broadcasts the watermark and trims the local log.
func (c *client) advanceFrontier() {
	for {
		if _, ok := c.log[c.frontier]; !ok {
			break
		}
		c.frontier++
	}
	c.reportWatermark(false)
}

// reportWatermark broadcasts the client's learned watermark to the
// servers and trims the local log below it (compaction only). Periodic
// reports fire every CompactEvery slots of frontier progress; idle
// reports (on queue drain or a passively learned decision) fire at a
// quarter of that window so an idle client neither pins the compaction
// floor by a full window nor broadcasts per landed command.
//
// Each report also gossips the decisions it is about to trim to the
// other clients (gossipEnvelope): an idle client learns no slots on its
// own, so without the gossip its watermark — and therefore every
// replica's compaction floor, which is the minimum over all clients —
// would stay pinned at its last active slot for the rest of the run.
// Gossip is rate-limited for free by riding the watermark reports, and
// re-gossip cannot ping-pong: a receiver only reports (and re-gossips)
// after its own frontier advances by at least a quarter window.
func (c *client) reportWatermark(idle bool) {
	ce := c.sh.cfg.CompactEvery
	if ce <= 0 || c.frontier == c.reported {
		return
	}
	window := ce
	if idle {
		window = (ce + 3) / 4
	}
	if c.frontier-c.reported < window {
		return
	}
	c.reported = c.frontier
	var report any = learnedEnvelope{shard: c.sh.id, watermark: c.frontier}
	for _, srv := range c.sh.servers {
		c.node.Send(srv, report)
	}
	if c.frontier > c.trimmed {
		cmds := make([]Command, 0, c.frontier-c.trimmed)
		for s := c.trimmed; s < c.frontier; s++ {
			cmds = append(cmds, c.log[s])
		}
		env := gossipEnvelope{shard: c.sh.id, first: c.trimmed, cmds: cmds}
		for _, peer := range c.sh.clients {
			if peer != c.id {
				c.node.Send(peer, env)
			}
		}
	}
	for s := c.trimmed; s < c.frontier; s++ {
		delete(c.log, s)
	}
	c.trimmed = c.frontier
}

// handleGossip installs decisions learned passively from another
// client's watermark report (compaction only). Slots the client already
// knows (trimmed, or in its log) are skipped, as are slots it is
// actively deciding — a live instance resolves through the normal
// decide path, and double-learning a slot would double-count it in the
// recorder's agreement bookkeeping. The rest enter the log exactly like
// a learn: the frontier advances, the learn hook fires, and an idle
// client re-reports at the quarter window so the servers' compaction
// floor keeps tracking the log tip.
func (c *client) handleGossip(env gossipEnvelope) {
	if c.sh.cfg.CompactEvery <= 0 {
		return
	}
	learned := false
	for i, cmd := range env.cmds {
		s := env.first + i
		if s < c.frontier {
			continue
		}
		if _, known := c.log[s]; known {
			continue
		}
		if inst := c.slots[s]; inst != nil && inst.pending {
			continue
		}
		c.log[s] = cmd
		learned = true
		if c.sh.onLearn != nil {
			c.sh.onLearn(c.id, s, cmd)
		}
	}
	if !learned {
		return
	}
	c.advanceFrontier()
	if !c.current.live {
		c.reportWatermark(true)
	}
}

func (c *client) switchTo(s, phase int, sv trace.Value) {
	inst := c.slots[s]
	if inst == nil || !inst.pending || inst.phase != phase {
		return
	}
	if phase+1 >= len(c.sh.protos) {
		panic("smr: last phase aborted")
	}
	if c.current.live && c.current.slot == s {
		c.current.switches++
	}
	inst.phase++
	c.comp(inst, inst.phase).SwitchIn(c.current.cmd, sv)
}

// handleEnvelope delivers a routed phase message.
func (c *client) handleEnvelope(from msgnet.ProcID, env slotEnvelope) {
	inst := c.slots[env.slot]
	if inst == nil || env.phase < 0 || env.phase >= len(c.sh.protos) {
		return
	}
	c.comp(inst, env.phase).OnMessage(from, env.payload)
}

// handleTimer delivers a routed, already-parsed phase timer. The name
// carries no slot: it can only have been armed by the live attempt, since
// retire cancels every name.
func (c *client) handleTimer(phase int, rest string) {
	if !c.current.live || phase < 0 || phase >= len(c.sh.protos) {
		return
	}
	if inst := c.slots[c.current.slot]; inst != nil {
		c.comp(inst, phase).OnTimer(rest)
	}
}

// OnMessage/OnTimer implement msgnet.Handler for the single-shard
// deployment, where the client engine is the node handler itself.
func (c *client) OnMessage(n *msgnet.Node, from msgnet.ProcID, payload any) {
	switch env := payload.(type) {
	case slotEnvelope:
		if env.shard == c.sh.id {
			c.handleEnvelope(from, env)
		}
	case gossipEnvelope:
		if env.shard == c.sh.id {
			c.handleGossip(env)
		}
	}
}

func (c *client) OnTimer(n *msgnet.Node, name string) {
	if shard, ok := splitRetryTimer(name); ok {
		if shard == c.sh.id {
			c.onRetryTimer()
		}
		return
	}
	shard, phase, rest, ok := splitPhaseTimer(name)
	if !ok || shard != c.sh.id {
		return
	}
	c.handleTimer(phase, rest)
}

// OnRestart implements msgnet.RecoverableHandler for the single-shard
// deployment.
func (c *client) OnRestart(n *msgnet.Node) { c.onRestart() }

// slotClientEnv adapts a client to one slot and phase. Like
// slotServerEnv it keeps its last broadcast payload beside the envelope
// boxed for it, so a retransmission of one boxed proposal boxes nothing.
type slotClientEnv struct {
	client  *client
	slot    int
	phase   int
	lastP   any
	lastBox any
}

// slotTimer is a phase-local timer name beside the node-level name built
// for it.
type slotTimer struct{ local, full string }

func (e *slotClientEnv) Self() msgnet.ProcID      { return e.client.id }
func (e *slotClientEnv) ClientIndex() int         { return e.client.index }
func (e *slotClientEnv) Clients() []msgnet.ProcID { return e.client.sh.clients }
func (e *slotClientEnv) Servers() []msgnet.ProcID { return e.client.sh.servers }
func (e *slotClientEnv) Now() msgnet.Time         { return e.client.node.Now() }
func (e *slotClientEnv) Decide(v trace.Value)     { e.client.decide(e.slot, e.phase, v) }
func (e *slotClientEnv) SwitchTo(sv trace.Value)  { e.client.switchTo(e.slot, e.phase, sv) }
func (e *slotClientEnv) Send(to msgnet.ProcID, p any) {
	e.client.node.Send(to, slotEnvelope{shard: e.client.sh.id, slot: e.slot, phase: e.phase, payload: p})
}

// Broadcast sends one boxed envelope — the same immutable value — to
// every server (msgnet.Handler's payload rule).
func (e *slotClientEnv) Broadcast(p any) {
	if e.lastBox == nil || p != e.lastP {
		e.lastP = p
		e.lastBox = slotEnvelope{shard: e.client.sh.id, slot: e.slot, phase: e.phase, payload: p}
	}
	for _, s := range e.client.sh.servers {
		e.client.node.Send(s, e.lastBox)
	}
}

// SetTimer arms the client's node-level name for (shard, phase, name),
// building it the first time any attempt arms it. The slot is not part of
// the name: a (client, shard) has one live attempt, so a client holds at
// most shards × phases × (names a phase uses) names however long it runs
// (TestTimerNamesBoundedPerClient).
func (e *slotClientEnv) SetTimer(name string, d msgnet.Time) {
	c := e.client
	full, ok := c.timerName(e.phase, name)
	if !ok {
		full = phaseTimerName(c.sh.id, e.phase, name)
		c.timers[e.phase] = append(c.timers[e.phase], slotTimer{local: name, full: full})
	}
	c.node.SetTimer(full, d)
}

// CancelTimer forwards only names the client has armed: a phase may
// cancel a timer it never set (Quorum cancels "retransmit" whether or not
// retransmission is on), and that must not cost a name.
func (e *slotClientEnv) CancelTimer(name string) {
	if full, ok := e.client.timerName(e.phase, name); ok {
		e.client.node.CancelTimer(full)
	}
}

func (c *client) timerName(phase int, name string) (full string, ok bool) {
	for _, t := range c.timers[phase] {
		if t.local == name {
			return t.full, true
		}
	}
	return "", false
}

// replica is the per-shard SMR server engine: per-slot phase server
// components, created lazily and freed below the compaction floor.
//
// Crash–recovery (Config.Recovery) splits the replica's state into a
// volatile part — the live phase components in slots — and a durable
// part: the per-slot snapshots in durable, the compaction watermarks and
// the floor. Snapshots are written after every delivered message, inside
// the same simulator event, so nothing a component said is ever ahead of
// what the store remembers; a restart wipes slots and components rebuild
// lazily from the snapshots, which makes a recovered replica
// indistinguishable from one that merely paused.
type replica struct {
	sh    *Shard
	id    msgnet.ProcID
	node  *msgnet.Node
	slots map[int]*serverSlot
	// durable holds per-slot phase snapshots (Recovery only), bounded by
	// the compaction window like slots; nil for a phase never persisted.
	durable map[int][maxPhases]any
	// wm holds per-client learned watermarks; slots below their minimum
	// are freed and refused (gcFloor). Compaction only.
	wm      map[msgnet.ProcID]int
	gcFloor int
	// free holds the server slots handleLearned freed, for component to
	// reuse; fresh[k] is the snapshot of a just-built phase-k component,
	// which resets a reused one (taken on first need).
	free  []*serverSlot
	fresh [maxPhases]any
}

func (r *replica) Init(n *msgnet.Node) { r.node = n }

// serverSlot is one slot's server-side phase components and their
// environments, each phase built on first use. spare[k] is a phase-k
// component left by the slot's previous use, bound to &envs[k] and
// waiting to be reset and reused. It is kept out of comps so that persist
// can never snapshot it under the new slot.
type serverSlot struct {
	comps [maxPhases]mpcons.ServerPhase
	envs  [maxPhases]slotServerEnv
	spare [maxPhases]mpcons.ServerPhase
}

// component returns the slot's phase-k server component, creating the
// slot on first touch and the phase on first use — restored from its
// durable snapshot when recovery is modeled and the phase has history. It
// returns nil for an unknown phase and for slots retired by compaction:
// no correct client proposes there anymore, so late (duplicated/delayed)
// messages are dropped rather than resurrecting state.
//
// A slot comes off the free list when it has one, and a phase reuses the
// slot's spare component, reset by Restore to the durable snapshot or
// else to a fresh component's: Restore sets every field a component has.
func (r *replica) component(slot, k int) mpcons.ServerPhase {
	if slot < r.gcFloor || k < 0 || k >= len(r.sh.protos) {
		return nil
	}
	sl := r.slots[slot]
	if sl == nil {
		if n := len(r.free); n > 0 {
			sl = r.free[n-1]
			r.free[n-1] = nil
			r.free = r.free[:n-1]
		} else {
			sl = &serverSlot{}
		}
		r.slots[slot] = sl
	}
	if sl.comps[k] == nil {
		sl.envs[k] = slotServerEnv{replica: r, slot: slot, phase: k}
		snap := r.durable[slot][k]
		comp := sl.spare[k]
		sl.spare[k] = nil
		if comp == nil {
			comp = r.sh.protos[k].NewServer(&sl.envs[k])
		} else if snap == nil {
			snap = r.freshSnapshot(k)
		}
		if snap != nil {
			comp.(mpcons.Durable).Restore(snap)
		}
		sl.comps[k] = comp
	}
	return sl.comps[k]
}

// freshSnapshot returns the snapshot of a just-built phase-k component.
func (r *replica) freshSnapshot(k int) any {
	if r.fresh[k] == nil {
		r.fresh[k] = r.sh.protos[k].NewServer(&slotServerEnv{replica: r}).(mpcons.Durable).Snapshot()
	}
	return r.fresh[k]
}

// release empties a slot freed below the compaction floor and puts it on
// the free list. Every phase leaves comps — a durable component becomes
// the spare, anything else is dropped — so the slot's next use starts
// with no phase built, exactly like a new slot
// (TestRecycledServerSlotsKeepNoState).
func (r *replica) release(sl *serverSlot) {
	for k, comp := range sl.comps {
		if _, ok := comp.(mpcons.Durable); ok {
			sl.spare[k] = comp
		}
		sl.comps[k] = nil
	}
	r.free = append(r.free, sl)
}

// persist snapshots the slot's phase state into the durable store
// (Recovery only). Called after every delivered message or timer for the
// slot, before the event ends — write-ahead relative to any reply the
// components sent within the event, since nothing leaves the simulator
// mid-event. A phase not built yet has nothing to remember: its entry
// stays as the store last had it.
func (r *replica) persist(slot int) {
	if !r.sh.cfg.Recovery {
		return
	}
	sl := r.slots[slot]
	if sl == nil {
		return
	}
	if r.durable == nil {
		r.durable = map[int][maxPhases]any{}
	}
	snaps := r.durable[slot]
	for k, comp := range sl.comps {
		if d, ok := comp.(mpcons.Durable); ok {
			snaps[k] = d.Snapshot()
		}
	}
	r.durable[slot] = snaps
}

// recover discards the volatile phase components after a restart; they
// rebuild lazily from the durable store. Without Recovery the whole
// replica is modeled as durable and a restart keeps its state.
func (r *replica) recover() {
	if !r.sh.cfg.Recovery {
		return
	}
	r.slots = map[int]*serverSlot{}
}

func (r *replica) handleEnvelope(from msgnet.ProcID, env slotEnvelope) {
	comp := r.component(env.slot, env.phase)
	if comp == nil {
		return
	}
	comp.OnMessage(from, env.payload)
	r.persist(env.slot)
}

// handleLearned advances the compaction floor: once every client has
// reported a watermark, slots below the minimum can never be proposed in
// again and their phase state is freed.
func (r *replica) handleLearned(from msgnet.ProcID, w int) {
	if w > r.wm[from] {
		r.wm[from] = w
	}
	if len(r.wm) < len(r.sh.clients) {
		return
	}
	min := -1
	for _, cid := range r.sh.clients {
		if v := r.wm[cid]; min < 0 || v < min {
			min = v
		}
	}
	for s := r.gcFloor; s < min; s++ {
		if sl := r.slots[s]; sl != nil {
			r.release(sl)
			delete(r.slots, s)
		}
		delete(r.durable, s)
	}
	if min > r.gcFloor {
		r.gcFloor = min
	}
}

func (r *replica) handleTimer(slot, phase int, rest string) {
	comp := r.component(slot, phase)
	if comp == nil {
		return
	}
	comp.OnTimer(rest)
	r.persist(slot)
}

// OnMessage/OnTimer implement msgnet.Handler for the single-shard
// deployment.
func (r *replica) OnMessage(n *msgnet.Node, from msgnet.ProcID, payload any) {
	switch env := payload.(type) {
	case slotEnvelope:
		if env.shard == r.sh.id {
			r.handleEnvelope(from, env)
		}
	case learnedEnvelope:
		if env.shard == r.sh.id {
			r.handleLearned(from, env.watermark)
		}
	}
}

func (r *replica) OnTimer(n *msgnet.Node, name string) {
	shard, slot, phase, rest, ok := splitSlotTimer(name)
	if !ok || shard != r.sh.id {
		return
	}
	r.handleTimer(slot, phase, rest)
}

// OnRestart implements msgnet.RecoverableHandler for the single-shard
// deployment.
func (r *replica) OnRestart(n *msgnet.Node) { r.recover() }

// slotServerEnv adapts a replica to one slot and phase. It keeps the
// last payload it sent beside the envelope boxed for it and sends that
// same box again while the payload is equal: Quorum's accept reply is
// one boxed value sent to every proposal. Every phase message is a
// comparable struct, so the comparison cannot panic.
type slotServerEnv struct {
	replica *replica
	slot    int
	phase   int
	lastP   any
	lastBox any
}

func (e *slotServerEnv) Self() msgnet.ProcID      { return e.replica.id }
func (e *slotServerEnv) Clients() []msgnet.ProcID { return e.replica.sh.clients }
func (e *slotServerEnv) Servers() []msgnet.ProcID { return e.replica.sh.servers }
func (e *slotServerEnv) Now() msgnet.Time         { return e.replica.node.Now() }
func (e *slotServerEnv) Send(to msgnet.ProcID, p any) {
	if e.lastBox == nil || p != e.lastP {
		e.lastP = p
		e.lastBox = slotEnvelope{shard: e.replica.sh.id, slot: e.slot, phase: e.phase, payload: p}
	}
	e.replica.node.Send(to, e.lastBox)
}

// SetTimer builds the node-level name on every call: no server phase arms
// a timer today, so there is nothing to remember it for.
func (e *slotServerEnv) SetTimer(name string, d msgnet.Time) {
	e.replica.node.SetTimer(slotTimerName(e.replica.sh.id, e.slot, e.phase, name), d)
}

// retryTimerName is the per-(client, shard) submission-progress timer.
func retryTimerName(shard int) string { return "r" + strconv.Itoa(shard) }

func splitRetryTimer(full string) (shard int, ok bool) {
	if !strings.HasPrefix(full, "r") {
		return 0, false
	}
	shard, err := strconv.Atoi(full[1:])
	return shard, err == nil
}

// phaseTimerName builds a client's "h<shard>p<phase>:<name>".
func phaseTimerName(shard, phase int, name string) string {
	return "h" + strconv.Itoa(shard) + "p" + strconv.Itoa(phase) + ":" + name
}

func splitPhaseTimer(full string) (shard, phase int, name string, ok bool) {
	rest, found := strings.CutPrefix(full, "h")
	p := strings.IndexByte(rest, 'p')
	colon := strings.IndexByte(rest, ':')
	if !found || p < 0 || colon < p {
		return 0, 0, "", false
	}
	shard, err0 := strconv.Atoi(rest[:p])
	phase, err1 := strconv.Atoi(rest[p+1 : colon])
	if err0 != nil || err1 != nil {
		return 0, 0, "", false
	}
	return shard, phase, rest[colon+1:], true
}

// slotTimerName builds a replica's "h<shard>s<slot>p<phase>:<name>" with
// one allocation.
func slotTimerName(shard, slot, phase int, name string) string {
	var buf [48]byte
	b := append(buf[:0], 'h')
	b = strconv.AppendInt(b, int64(shard), 10)
	b = append(b, 's')
	b = strconv.AppendInt(b, int64(slot), 10)
	b = append(b, 'p')
	b = strconv.AppendInt(b, int64(phase), 10)
	b = append(b, ':')
	b = append(b, name...)
	return string(b)
}

func splitSlotTimer(full string) (shard, slot, phase int, name string, ok bool) {
	if !strings.HasPrefix(full, "h") {
		return 0, 0, 0, "", false
	}
	rest := full[1:]
	s := strings.IndexByte(rest, 's')
	p := strings.IndexByte(rest, 'p')
	colon := strings.IndexByte(rest, ':')
	if s < 0 || p < 0 || colon < 0 || s > p || p > colon {
		return 0, 0, 0, "", false
	}
	shard, err0 := strconv.Atoi(rest[:s])
	slot, err1 := strconv.Atoi(rest[s+1 : p])
	phase, err2 := strconv.Atoi(rest[p+1 : colon])
	if err0 != nil || err1 != nil || err2 != nil {
		return 0, 0, 0, "", false
	}
	return shard, slot, phase, rest[colon+1:], true
}

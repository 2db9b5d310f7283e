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
// ShardedCluster (sharded.go) deploys N independent shards sharing one
// simulated network and hash-partitions keyed commands across them,
// which is sound for single-key traffic because linearizability is
// compositional per key (DESIGN.md, decision 10); with one shard it is
// the paper's §6 system verbatim. TxnCluster (txn.go)
// layers cross-shard atomic transactions on top via two-phase commit
// over the per-shard logs; keys entangled by a transaction lose
// per-key locality, so the checker merges each txn-connected
// component's history and checks it against the adt.TxnKV product
// folder (decision 18).
//
// Clients submit commands into slots they own: client i of n proposes
// only in the slots ≡ i (mod n), so on a healthy network every slot has
// one proposer and decides on the fast path (DESIGN.md decision 30). A
// client pushes each slot it wins to its peers, declares the owned slots
// it passed over no-ops without a consensus round, and answers a
// submission once every lower slot is known; a lower slot left unknown
// for too long is filled with the no-op through the normal composition.
// Phase protocols are reused verbatim from packages quorum and paxos
// through slot-scoped environment adapters. Logs compact behind a learned
// watermark (decision 14) and crashed processes replay from their
// durable model on restart.
package smr

import (
	"fmt"
	"math/bits"
	"slices"

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
	// QuorumTimeout and Retransmit tune the Quorum phase (zero values
	// use the protocol defaults).
	QuorumTimeout msgnet.Time
	Retransmit    msgnet.Time
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
	// RetryTimeout, when positive, bounds each slot proposal — a
	// command's attempt or a fill: a client whose live proposal has not
	// resolved within the timeout abandons the slot instance and
	// re-proposes the same value in the same slot, from the first phase.
	// It must restart at phase 0 — a retry that entered the robust phase
	// directly would propose its own value into Paxos, and only values
	// derived from quorum accepts are safe there (a still-live fast path
	// can reach unanimity on another value and split the slot); the
	// quorum phase's own conflict/timeout switch rules degrade the fresh
	// attempt to the robust phase with a safe value, and the re-broadcast
	// doubles as a retransmission. The submission itself is the stable
	// retry identity — it is in flight in one slot at a time and moves on
	// only once that slot's decision is known (decision 30), and the
	// sharded recorder verifies online that each submission is decided
	// once, in its owner's slot and order (shardRecorder.claim). Successive
	// retries of one submission back off exponentially (capped at
	// retryBackoffCap × RetryTimeout) with a small deterministic
	// per-client jitter.
	RetryTimeout msgnet.Time
	// CompactEvery enables log compaction when positive. It counts
	// rounds of slot ownership: every time a client's learned watermark
	// (its first unknown slot) advances by CompactEvery × clients slots
	// it broadcasts the watermark to the servers and trims its own log
	// below it — per round, because no-op slots inflate the slot count
	// while each client still owns one slot a round. Servers free
	// per-slot replica state below the minimum watermark reported by all
	// clients (no client can ever propose there again). This bounds
	// memory by the compaction window instead of the log length, at the
	// cost of extra (tiny) watermark messages. Each report also gossips
	// the trimmed decisions, no-ops included, to the other clients
	// (kindGossip), so clients with drained queues keep learning —
	// and keep reporting — instead of pinning the servers' floor at their
	// last active slot. With compaction on, Log and the retained
	// per-client logs only cover the untrimmed suffix; ShardedCluster
	// checks log agreement online instead (sharded.go).
	CompactEvery int
}

// maxPhases is the most phases a slot composes (protos below): the
// per-slot hosts keep their per-phase state in arrays of this size so one
// allocation covers a slot instance.
const maxPhases = 2

func (c Config) protos() []mpcons.PhaseProtocol {
	if !c.FastPath {
		return []mpcons.PhaseProtocol{paxos.Protocol{}}
	}
	return []mpcons.PhaseProtocol{
		quorum.Protocol{Timeout: c.QuorumTimeout, Retransmit: c.Retransmit},
		paxos.Protocol{},
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
// register themselves on the network — their ShardedCluster routes
// messages and timers in, so several shards can share the same client
// and server processes — and report every start, learn and landing to
// their recorder.
type Shard struct {
	id      int
	cfg     Config
	protos  []mpcons.PhaseProtocol
	clients []msgnet.ProcID
	servers []msgnet.ProcID
	// cls[i] is client i's engine (client.index), the command path's
	// handle on it; byID finds one by name at the API edge and at build
	// time.
	cls  []*client
	byID map[msgnet.ProcID]*client
	reps map[msgnet.ProcID]*replica
	// fresh[k] is the snapshot of a just-built phase-k server component:
	// what a slot never persisted restores (zero for a phase that is not
	// durable).
	fresh [maxPhases]mpcons.State

	keepResults bool
	results     []SubmitResult

	// rec observes the shard: a submission's start (its invocation
	// point), every learn of a slot's decision (decisions won by other
	// clients and no-ops included), once per client and slot, before any
	// landing for that slot, and every landing.
	rec *shardRecorder
}

// newShard builds a shard's client and replica engines without touching
// the network's node table.
func newShard(id int, clients, servers []msgnet.ProcID, cfg Config) *Shard {
	sh := &Shard{
		id:      id,
		cfg:     cfg,
		protos:  cfg.protos(),
		clients: clients,
		servers: servers,
		byID:    map[msgnet.ProcID]*client{},
		reps:    map[msgnet.ProcID]*replica{},
	}
	for k, p := range sh.protos {
		if d, ok := p.NewServer(nil).(mpcons.Durable); ok {
			sh.fresh[k] = d.Snapshot()
		}
	}
	for i, cid := range clients {
		c := &client{sh: sh, id: cid, index: i, skipped: i, told: make([]int, len(clients))}
		for j := range c.told {
			c.told[j] = i
		}
		sh.cls = append(sh.cls, c)
		sh.byID[cid] = c
	}
	for _, sid := range servers {
		sh.reps[sid] = &replica{sh: sh, id: sid, wm: make([]int, len(clients))}
	}
	return sh
}

// checkConsistency verifies that no two of the shard's clients disagree
// on a slot's decision. With compaction enabled it only covers the
// untrimmed log suffixes; the recorder performs the same check online
// over every learn. Which submission a decision is, and that it is
// decided once, the recorder checks by position at the slot's first
// learn (shardRecorder.claim): commands need not be distinct, so the
// log's contents alone cannot tell.
func (sh *Shard) checkConsistency() error {
	slotVal := map[int]Command{}
	for _, c := range sh.cls {
		for s := c.log.lo; s < c.log.hi; s++ {
			e := c.log.get(s)
			if !e.known {
				continue
			}
			if prev, ok := slotVal[s]; ok && prev != e.v {
				return fmt.Errorf("smr: shard %d slot %d decided both %q and %q", sh.id, s, prev, e.v)
			}
			slotVal[s] = e.v
		}
	}
	return nil
}

// Every message of a shard carries the shard in its header. A phase
// message of a slot instance also carries the slot and the phase there,
// and keeps its protocol's kind; the shard's own messages take the kinds
// below, from mpcons.HostKinds up.
const (
	// kindLearned carries a client's learned watermark, A, to the servers
	// (compaction only): every slot below it is decided and known to the
	// sender, which will therefore never propose in those slots again. B
	// is the sender's client index (client.index).
	kindLearned = mpcons.HostKinds + iota
	// kindGossip carries decided commands from one client to another
	// (compaction only): Body is a []Command whose element i is the
	// decision of slot A+i, no-ops included. A client piggybacks the
	// decisions it is about to trim onto every watermark report. A skip is
	// reported only to the client whose notice asked for it, so clients
	// with no in-flight submission — who send no notices — learn other
	// clients' no-ops only here, and without it would pin the servers'
	// compaction floor at their first such slot.
	kindGossip
	// kindNotice pushes a decision from the slot's owner to its peers: the
	// owner's command V won Slot. A is the owner's client index, which the
	// peer's skip report answers.
	kindNotice
	// kindSkip answers a notice with the sender's no-op slots: bit k of B
	// set means the sender's owned slot A + k·clients holds the no-op.
	// Clear bits are the sender's command slots, reported by their own
	// notices.
	kindSkip
)

// timerProgress is the kind of the one timer a shard arms of its own, per
// (client, shard): the retry timer of the live proposal, or the fill
// deadline of a blocked landing. A phase timer of a slot instance carries
// the shard and the phase in its key and keeps its protocol's kind.
const timerProgress = mpcons.HostKinds

// noop is the value of a slot that carries no command: an owned slot its
// owner passed over, or a slot a blocked client filled. It is never
// submitted (enqueue refuses it), never projected onto a key and never
// lands.
const noop Command = "\x00noop"

// client is the per-shard SMR client engine: it serializes submissions
// into the slots it owns — client index of n owns the slots ≡ index
// (mod n) — and drives one consensus instance at a time, for the current
// command's slot or for a fill of a lower slot it is blocked on.
type client struct {
	sh    *Shard
	id    msgnet.ProcID
	index int
	node  *msgnet.Node

	// inst is the live slot instance, at slot instSlot; nil when none is.
	// spare is the last retired instance, which the next proposal reuses.
	inst     *slotInstance
	instSlot int
	spare    *slotInstance
	// log holds the slots the client knows from trimmed up.
	log window[logSlot]
	// frontier is the first slot not known (the dense-prefix length) and
	// top one past the highest slot known: a new command goes into the
	// lowest owned slot at or above top.
	frontier int
	top      int
	// skipped is the next owned slot skip has to look at: every owned
	// slot below it is known or holds the command in flight.
	skipped int
	// told[j] is the owned slot from which this client has not yet
	// reported its no-op slots to client j.
	told []int
	// reported and trimmed track the compaction watermark last broadcast
	// and the prefix already trimmed from log.
	reported int
	trimmed  int

	queue   []Command
	current submission
	// armed[k] has bit t set while phase k's timer of kind t may be armed:
	// set when a phase arms it, cleared when the phase cancels it and at
	// retire, which cancels every kind still set.
	armed [maxPhases]uint64
	// retries counts timeout/restart re-proposals across all submissions
	// (for stats).
	retries int64
}

// logSlot is one slot of a client's log: its decision, once known.
type logSlot struct {
	v     Command
	known bool
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
	slot     int // the command's slot
	// won: slot decided cmd, and the landing waits for the lower slots.
	// blocked: the fill deadline is armed; filling: it has passed, and
	// the client fills the lowest unknown slot, one after another.
	won, blocked, filling bool
}

// slotInstance is one proposal's consensus instance: the client-side phase
// components of one slot and the environments they act through. Only the
// phase in use is built up front; a later phase's component — the Paxos
// proposer most proposals never reach — is built by comp on first use.
type slotInstance struct {
	comps   [maxPhases]mpcons.ClientPhase
	envs    [maxPhases]slotClientEnv
	phase   int
	pending bool
	// value is what the instance proposes: the current command, or the
	// no-op for a fill.
	value Command
	// roundFloor is the highest Paxos round an abandoned instance of the
	// same proposal used, applied to ballot-tracking components as they
	// are built so a re-proposal never reuses a ballot (see
	// mpcons.BallotTracker).
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

// enqueue submits cmd: the recorder notes it as the client's latest
// submission, and the client runs it once those before it have landed.
func (c *client) enqueue(cmd Command) {
	if cmd == noop {
		panic("smr: the no-op command is reserved")
	}
	c.sh.rec.submit(c.index, cmd)
	c.queue = append(c.queue, cmd)
	if !c.current.live {
		c.startNext()
	}
}

func (c *client) startNext() {
	if len(c.queue) == 0 {
		c.current = submission{}
		// Going idle: flush at a quarter of the usual window so the floor
		// stays within O(CompactEvery) of the log tip without broadcasting
		// per landed command when a paced feed briefly drains the queue
		// between submissions. From here on the client learns passively —
		// from its peers' notices, and from their watermark reports, which
		// gossip the no-ops it is missing (handleGossip) and keep it
		// reporting too.
		c.reportWatermark(true)
		return
	}
	cmd := c.queue[0]
	if len(c.queue) == 1 {
		// Emptied: the next enqueue reuses the array. A paced feed empties
		// the queue at nearly every command.
		c.queue = c.queue[:0]
	} else {
		c.queue = c.queue[1:]
	}
	c.current = submission{live: true, cmd: cmd, start: c.node.Now()}
	c.sh.rec.start(c.index, cmd, c.node.Now())
	c.attempt(c.ownedFrom(c.top))
}

// ownedFrom returns the client's lowest owned slot at or above s.
func (c *client) ownedFrom(s int) int {
	n := len(c.sh.clients)
	return s + ((c.index-s)%n+n)%n
}

// attempt proposes the current command in its owned slot s.
func (c *client) attempt(s int) {
	c.current.attempts++
	c.current.slot = s
	c.propose(s, c.current.cmd, 0)
}

// propose starts an instance proposing v in slot s at the fast path
// (phase 0). Re-proposals also restart at phase 0: only switch values
// derived from quorum accepts may enter the robust phase (see
// Config.RetryTimeout), so the fresh instance relies on the quorum
// phase's own conflict/timeout rules to degrade safely.
//
// The instance reuses the last retired one. With the fast path it keeps
// that instance's Quorum client too, which is bound to &envs[0] and whose
// Propose resets every field it has; a Paxos proposer carries its round
// and any learned decision across Propose, so it never survives.
func (c *client) propose(s int, v Command, floor int64) {
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
	inst.pending, inst.value, inst.roundFloor = true, v, floor
	for k := range c.sh.protos {
		inst.envs[k] = slotClientEnv{client: c, slot: s, phase: k}
	}
	c.inst, c.instSlot = inst, s
	c.comp(inst, 0).Propose(v)
	c.armRetry()
}

// retryBackoffCap caps a submission's exponential retry backoff, in
// multiples of Config.RetryTimeout.
const retryBackoffCap = 8

// armRetry (re)arms the progress timer as the retry timer of the live
// proposal, with exponential backoff and deterministic jitter.
func (c *client) armRetry() {
	rt := c.sh.cfg.RetryTimeout
	if rt <= 0 {
		return
	}
	maxBackoff := retryBackoffCap * rt
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
	c.node.Arm(c.progressTimer(), d)
}

// fillAfter is how long a landing may wait on an unknown lower slot
// before the client fills it: twice the Quorum timeout (quorum's default
// of 6 when unset).
func (c *client) fillAfter() msgnet.Time {
	qt := c.sh.cfg.QuorumTimeout
	if qt <= 0 {
		qt = 6
	}
	return 2 * qt
}

// onProgressTimer retries the live proposal, or, when none is live and
// the landing is blocked, starts filling the lower slots.
func (c *client) onProgressTimer() {
	switch {
	case !c.current.live:
	case c.inst != nil:
		if c.sh.cfg.RetryTimeout > 0 {
			c.redo()
		}
	case c.current.won:
		c.current.filling = true
		c.fill()
	}
}

// fill proposes the no-op in the lowest unknown slot, which a blocked
// landing needs and another client owns. Only an owner ever proposes a
// command in its slots, so the fill decides the no-op or that command.
func (c *client) fill() {
	if c.inst == nil && c.frontier < c.current.slot {
		c.propose(c.frontier, noop, 0)
	}
}

// redo is the shared retry/restart path: retire the live instance
// (carrying its Paxos round floor) and re-propose its value in the same
// slot, which is the only slot a command is ever in flight in until that
// slot's decision is known. The replacement arms the same timer keys as
// the retired instance, but retire cancelled them, so no timer the
// retired instance armed can fire into it
// (TestRedoAtSameSlotGetsNoStaleTimer). Late accept replies to the
// retired instance do reach the replacement's quorum component, which is
// sound: an accept carries the server's immutable first-received value,
// independent of which proposal solicited it.
func (c *client) redo() {
	inst, s := c.inst, c.instSlot
	v, floor := inst.value, inst.roundFloor
	// Phases never built used no round above the floor they would have
	// started from.
	for _, comp := range inst.comps {
		if bt, ok := comp.(mpcons.BallotTracker); ok && bt.Round() > floor {
			floor = bt.Round()
		}
	}
	c.retire()
	c.retries++
	c.current.retries++
	if s == c.current.slot {
		c.current.attempts++
	}
	c.propose(s, v, floor)
}

// onRestart re-drives the client after a process restart: the crash
// cleared every timer and dropped in-flight replies, so the live
// proposal would stall forever without a re-proposal, and a blocked
// landing without its fill deadline. Client durable state (log, queue,
// current submission) survives by the recovery model (Config.Recovery).
func (c *client) onRestart() {
	switch {
	case c.inst != nil:
		c.redo()
	case c.current.won:
		c.node.Arm(c.progressTimer(), c.fillAfter())
	}
}

// decide resolves slot s with value v (called from a phase component).
func (c *client) decide(s, phase int, v Command) {
	inst := c.inst
	if inst == nil || c.instSlot != s || !inst.pending || inst.phase != phase {
		return
	}
	inst.pending = false
	c.retire()
	c.learn(s, v)
	c.settle()
}

// learn records slot s's decision v unless the client knows it already,
// so every client learns every slot at most once (the recorder's
// agreement bookkeeping counts learns), and retires a live instance that
// was still deciding the slot. Callers settle afterwards.
func (c *client) learn(s int, v Command) bool {
	if s < c.frontier || c.log.get(s).known {
		return false
	}
	*c.log.at(s) = logSlot{v: v, known: true}
	if s >= c.top {
		c.top = s + 1
	}
	if c.inst != nil && c.instSlot == s {
		c.retire()
	}
	c.sh.rec.learn(s, v)
	return true
}

// settle brings the client up to date with what it knows: it skips its
// passed-over slots, advances the frontier, moves the current command
// along, and then reports the watermark, which may trim the log.
func (c *client) settle() {
	c.skip()
	for c.log.get(c.frontier).known {
		c.frontier++
	}
	c.advance()
	c.reportWatermark(!c.current.live)
}

// advance moves the current command along: to its next owned slot if a
// fill took its slot, to the landing once its slot and every lower slot
// are known, or else towards filling the lower slots.
func (c *client) advance() {
	cur := &c.current
	if !cur.live {
		return
	}
	if !cur.won {
		e := c.log.get(cur.slot)
		if !e.known {
			return
		}
		if e.v != cur.cmd {
			// A fill decided the no-op here: the command is in flight
			// nowhere now, so it moves to a slot above everything known.
			c.attempt(c.ownedFrom(c.top))
			return
		}
		cur.won = true
		c.notify(cur.slot, e.v)
	}
	switch {
	case c.frontier > cur.slot:
		c.land()
	case cur.filling:
		c.fill()
	case !cur.blocked:
		cur.blocked = true
		c.node.Arm(c.progressTimer(), c.fillAfter())
	}
}

// skip declares every owned slot below top that the client never proposed
// in a no-op, without a consensus round. That is safe because only an
// owner puts a command into its slots — every other client proposes only
// the no-op there, and the backup phase only carries values the quorum
// phase saw — and a client places new commands at or above top, so such
// a slot can decide nothing else.
func (c *client) skip() {
	for n := len(c.sh.clients); c.skipped < c.top; c.skipped += n {
		s := c.skipped
		if s < c.frontier || (c.current.live && !c.current.won && s == c.current.slot) {
			continue
		}
		if c.log.get(s).known {
			continue
		}
		*c.log.at(s) = logSlot{v: noop, known: true}
		c.sh.rec.learn(s, noop)
	}
}

// land answers the current submission: its slot decided its command and
// every lower slot is known, so any command invoked after this response
// can only win a higher slot.
func (c *client) land() {
	cur := c.current
	c.node.Disarm(c.progressTimer())
	result := SubmitResult{
		Client:   c.id,
		Cmd:      cur.cmd,
		Shard:    c.sh.id,
		Slot:     cur.slot,
		Start:    cur.start,
		End:      c.node.Now(),
		Attempts: cur.attempts,
		Switches: cur.switches,
		Retries:  cur.retries,
	}
	if c.sh.keepResults {
		c.sh.results = append(c.sh.results, result)
	}
	c.sh.rec.land(c.index, result)
	c.startNext()
}

// notify pushes a slot the client's command won to every peer.
func (c *client) notify(s int, v Command) {
	if len(c.sh.clients) == 1 {
		return
	}
	m := msgnet.Msg{Shard: int32(c.sh.id), Kind: kindNotice, Slot: s, V: v, A: int64(c.index)}
	for _, p := range c.sh.clients {
		if p != c.id {
			c.node.Post(p, m)
		}
	}
}

// handleNotice learns a peer's won slot and answers with this client's
// no-op slots below it that the peer has not been told of yet.
func (c *client) handleNotice(from msgnet.ProcID, m msgnet.Msg) {
	if c.learn(m.Slot, m.V) {
		c.settle()
	}
	c.reportSkips(from, int(m.A), m.Slot)
}

// reportSkips sends peer `to`, client j, the client's no-op slots in
// [told, below), 64 owned slots per message, and only messages that name
// one. Slots already trimmed are not reported: the peer had them in the
// gossip.
func (c *client) reportSkips(to msgnet.ProcID, j, below int) {
	n := len(c.sh.clients)
	s := max(c.told[j], c.ownedFrom(c.trimmed))
	for s < below {
		first, noops := s, uint64(0)
		for k := 0; k < 64 && s < below; k, s = k+1, s+n {
			if e := c.log.get(s); e.known && e.v == noop {
				noops |= 1 << k
			}
		}
		if noops != 0 {
			c.node.Post(to, msgnet.Msg{Shard: int32(c.sh.id), Kind: kindSkip, A: int64(first), B: int64(noops)})
		}
	}
	if s > c.told[j] {
		c.told[j] = s
	}
}

// handleSkips learns a peer's no-op slots.
func (c *client) handleSkips(m msgnet.Msg) {
	learned, first := false, int(m.A)
	for noops := uint64(m.B); noops != 0; noops &= noops - 1 {
		if c.learn(first+bits.TrailingZeros64(noops)*len(c.sh.clients), noop) {
			learned = true
		}
	}
	if learned {
		c.settle()
	}
}

// retire ends the live instance: late messages for its slot are dropped
// from now on, and every phase timer it left armed is cancelled — a
// generation bump, so no timer the instance armed can fire into the next
// one, which arms the same keys. The instance is kept as the spare.
func (c *client) retire() {
	for k, armed := range c.armed {
		for ; armed != 0; armed &= armed - 1 {
			c.node.Disarm(c.phaseTimer(k, uint8(bits.TrailingZeros64(armed))))
		}
	}
	c.armed = [maxPhases]uint64{}
	c.spare, c.inst = c.inst, nil
}

// reportWatermark broadcasts the client's learned watermark to the
// servers and trims the local log below it (compaction only). Periodic
// reports fire every CompactEvery rounds of frontier progress; idle
// reports (on queue drain or a passively learned decision) fire at a
// quarter of that window so an idle client neither pins the compaction
// floor by a full window nor broadcasts per landed command.
//
// Each report also gossips the decisions it is about to trim to the
// other clients (kindGossip): an idle client hears of no other
// client's no-op on its own, so without the gossip its watermark — and
// therefore every replica's compaction floor, which is the minimum over
// all clients — would stay pinned for the rest of the run. Gossip is
// rate-limited for free by riding the watermark reports, and re-gossip
// cannot ping-pong: a receiver only reports (and re-gossips) after its
// own frontier advances by at least a quarter window.
func (c *client) reportWatermark(idle bool) {
	ce := c.sh.cfg.CompactEvery
	if ce <= 0 || c.frontier == c.reported {
		return
	}
	window := ce * len(c.sh.clients)
	if idle {
		window = (window + 3) / 4
	}
	if c.frontier-c.reported < window {
		return
	}
	c.reported = c.frontier
	report := msgnet.Msg{Shard: int32(c.sh.id), Kind: kindLearned, A: int64(c.frontier), B: int64(c.index)}
	for _, srv := range c.sh.servers {
		c.node.Post(srv, report)
	}
	if c.frontier > c.trimmed {
		cmds := make([]Command, 0, c.frontier-c.trimmed)
		for s := c.trimmed; s < c.frontier; s++ {
			cmds = append(cmds, c.log.get(s).v)
		}
		// One Body, boxed once and shared by every peer's copy.
		gossip := msgnet.Msg{Shard: int32(c.sh.id), Kind: kindGossip, A: int64(c.trimmed), Body: cmds}
		for _, peer := range c.sh.clients {
			if peer != c.id {
				c.node.Post(peer, gossip)
			}
		}
	}
	c.log.trim(c.frontier)
	c.trimmed = c.frontier
}

// handleGossip installs decisions learned passively from another
// client's watermark report (compaction only), exactly like any other
// learn: known slots are skipped, the frontier advances, the learn hook
// fires, and an idle client re-reports at the quarter window so the
// servers' compaction floor keeps tracking the log tip.
func (c *client) handleGossip(m msgnet.Msg) {
	cmds, ok := m.Body.([]Command)
	if !ok || c.sh.cfg.CompactEvery <= 0 {
		return
	}
	learned, first := false, int(m.A)
	for i, cmd := range cmds {
		if c.learn(first+i, cmd) {
			learned = true
		}
	}
	if learned {
		c.settle()
	}
}

func (c *client) switchTo(s, phase int, sv trace.Value) {
	inst := c.inst
	if inst == nil || c.instSlot != s || !inst.pending || inst.phase != phase {
		return
	}
	if phase+1 >= len(c.sh.protos) {
		panic("smr: last phase aborted")
	}
	if c.current.live && c.current.slot == s {
		c.current.switches++
	}
	inst.phase++
	c.comp(inst, inst.phase).SwitchIn(inst.value, sv)
}

// handlePhase delivers a routed phase message to the live instance;
// messages for any other slot are late and dropped.
func (c *client) handlePhase(from msgnet.ProcID, m msgnet.Msg) {
	if c.inst == nil || m.Slot != c.instSlot || int(m.Phase) >= len(c.sh.protos) {
		return
	}
	c.comp(c.inst, int(m.Phase)).OnMessage(from, m)
}

// tick fires a timer of this shard: the progress timer, or a phase timer,
// which goes to the live instance. A phase timer's key carries no slot:
// it can only have been armed by the live instance, since retire cancels
// every one.
func (c *client) tick(t msgnet.Timer) {
	switch {
	case t.Kind == timerProgress:
		c.onProgressTimer()
	case c.inst != nil && int(t.Phase) < len(c.sh.protos):
		c.comp(c.inst, int(t.Phase)).OnTimer(t.Kind)
	}
}

func (c *client) progressTimer() msgnet.Timer {
	return msgnet.Timer{Shard: int32(c.sh.id), Kind: timerProgress}
}

// phaseTimer is the key of phase k's timer of the given kind. The slot is
// not part of it: a (client, shard) has one live attempt, so a client
// holds at most shards × phases × (kinds a phase uses) keys however long
// it runs (TestTimerNamesBoundedPerClient).
func (c *client) phaseTimer(k int, kind uint8) msgnet.Timer {
	return msgnet.Timer{Shard: int32(c.sh.id), Phase: uint8(k), Kind: kind}
}

// handle routes a client-bound message of this shard to its handler.
func (c *client) handle(from msgnet.ProcID, m msgnet.Msg) {
	switch {
	case m.Kind < mpcons.HostKinds:
		c.handlePhase(from, m)
	case m.Kind == kindNotice:
		c.handleNotice(from, m)
	case m.Kind == kindSkip:
		c.handleSkips(m)
	case m.Kind == kindGossip:
		c.handleGossip(m)
	}
}

// slotClientEnv adapts a client to one slot and phase: it posts the
// phase's messages under the slot's routing header.
type slotClientEnv struct {
	client *client
	slot   int
	phase  int
}

func (e *slotClientEnv) Self() msgnet.ProcID      { return e.client.id }
func (e *slotClientEnv) ClientIndex() int         { return e.client.index }
func (e *slotClientEnv) Clients() []msgnet.ProcID { return e.client.sh.clients }
func (e *slotClientEnv) Servers() []msgnet.ProcID { return e.client.sh.servers }
func (e *slotClientEnv) Now() msgnet.Time         { return e.client.node.Now() }
func (e *slotClientEnv) Decide(v trace.Value)     { e.client.decide(e.slot, e.phase, v) }
func (e *slotClientEnv) SwitchTo(sv trace.Value)  { e.client.switchTo(e.slot, e.phase, sv) }
func (e *slotClientEnv) Send(to msgnet.ProcID, m msgnet.Msg) {
	m.Shard, m.Slot, m.Phase = int32(e.client.sh.id), e.slot, uint8(e.phase)
	e.client.node.Post(to, m)
}

func (e *slotClientEnv) Broadcast(m msgnet.Msg) {
	m.Shard, m.Slot, m.Phase = int32(e.client.sh.id), e.slot, uint8(e.phase)
	for _, s := range e.client.sh.servers {
		e.client.node.Post(s, m)
	}
}

// SetTimer arms the phase's timer key of the given kind (phaseTimer) and
// marks it armed for retire.
func (e *slotClientEnv) SetTimer(kind uint8, d msgnet.Time) {
	if kind >= 64 {
		panic("smr: a phase timer kind must be below 64 (mpcons.HostKinds)")
	}
	c := e.client
	c.armed[e.phase] |= 1 << kind
	c.node.Arm(c.phaseTimer(e.phase, kind), d)
}

// CancelTimer cancels only kinds marked armed: a phase may cancel a timer
// it never set (Quorum cancels its retransmit timer whether or not
// retransmission is on), and there is nothing to cancel then.
func (e *slotClientEnv) CancelTimer(kind uint8) {
	c := e.client
	if c.armed[e.phase]&(1<<kind) != 0 {
		c.armed[e.phase] &^= 1 << kind
		c.node.Disarm(c.phaseTimer(e.phase, kind))
	}
}

// replica is the per-shard SMR server engine: per-slot phase server
// components, created lazily and freed below the compaction floor.
//
// Crash–recovery (Config.Recovery) splits the replica's state into a
// volatile part — the live phase components of its slots — and a durable
// part: each slot's snapshots (serverSlot.store), the compaction
// watermarks and the floor. Snapshots are written after every delivered
// message, inside the same simulator event, so nothing a component said
// is ever ahead of what the store remembers; a restart wipes the
// components and they rebuild lazily from the snapshots, which makes a
// recovered replica indistinguishable from one that merely paused.
type replica struct {
	sh   *Shard
	id   msgnet.ProcID
	node *msgnet.Node
	// slots holds the slots from gcFloor up that the replica was sent a
	// phase message for.
	slots window[*serverSlot]
	// wm[i] is client i's learned watermark, 0 until it reports; heard
	// counts the clients that have. Slots below their minimum are freed
	// and refused (gcFloor). Compaction only.
	wm      []int
	heard   int
	gcFloor int
	// free holds the server slots handleLearned freed, for component to
	// reuse.
	free []*serverSlot
}

func (r *replica) Init(n *msgnet.Node) { r.node = n }

// serverSlot is one slot's server-side phase components and their
// environments, each phase built on first use. spare[k] is a phase-k
// component left by the slot's previous use, bound to &envs[k] and
// waiting to be reset and reused. It is kept out of comps so that persist
// can never snapshot it under the new slot. store is the slot's durable
// store under Recovery, allocated with it (durableSlot), and nil
// otherwise.
type serverSlot struct {
	comps [maxPhases]mpcons.ServerPhase
	envs  [maxPhases]slotServerEnv
	spare [maxPhases]mpcons.ServerPhase
	store *slotStore
}

// slotStore is a slot's durable store: its phase snapshots, once
// persisted is set. A restart keeps it.
type slotStore struct {
	snaps     [maxPhases]mpcons.State
	persisted bool
}

// durableSlot is a server slot and its store in one allocation, so a
// replica without Recovery carries a pointer per slot, not a store.
type durableSlot struct {
	serverSlot
	store slotStore
}

// component returns the slot's phase-k server component, creating the
// slot on first touch and the phase on first use — restored from its
// durable snapshot when recovery is modeled and the phase has history. It
// returns nil for an unknown phase and for slots retired by compaction:
// no correct client proposes there anymore, so late (duplicated/delayed)
// messages are dropped rather than resurrecting state.
//
// A slot comes off the free list when it has one, and a phase reuses the
// slot's spare component. A durable component is reset by Restore, which
// sets every field it has, to its snapshot (snapshots).
func (r *replica) component(slot, k int) mpcons.ServerPhase {
	if slot < r.gcFloor || k < 0 || k >= len(r.sh.protos) {
		return nil
	}
	p := r.slots.at(slot)
	if *p == nil {
		if n := len(r.free); n > 0 {
			*p = r.free[n-1]
			r.free[n-1] = nil
			r.free = r.free[:n-1]
		} else if r.sh.cfg.Recovery {
			d := &durableSlot{}
			d.serverSlot.store = &d.store
			*p = &d.serverSlot
		} else {
			*p = &serverSlot{}
		}
	}
	sl := *p
	if sl.comps[k] == nil {
		sl.envs[k] = slotServerEnv{replica: r, slot: slot, phase: k}
		comp := sl.spare[k]
		sl.spare[k] = nil
		if comp == nil {
			comp = r.sh.protos[k].NewServer(&sl.envs[k])
		}
		if d, ok := comp.(mpcons.Durable); ok {
			d.Restore(r.snapshots(sl)[k])
		}
		sl.comps[k] = comp
	}
	return sl.comps[k]
}

// snapshots returns the slot's durable snapshots: a just-built
// component's (Shard.fresh) for a slot never persisted.
func (r *replica) snapshots(sl *serverSlot) [maxPhases]mpcons.State {
	if sl.store != nil && sl.store.persisted {
		return sl.store.snaps
	}
	return r.sh.fresh
}

// release empties a slot freed below the compaction floor, its durable
// snapshots too, and puts it on the free list, so the slot's next use
// starts with no phase built and nothing persisted, exactly like a new
// slot (TestRecycledServerSlotsKeepNoState).
func (r *replica) release(sl *serverSlot) {
	sl.wipe()
	if sl.store != nil {
		*sl.store = slotStore{}
	}
	r.free = append(r.free, sl)
}

// wipe drops the slot's live phases: each leaves comps, a durable
// component to become the spare that component resets, anything else
// for good.
func (sl *serverSlot) wipe() {
	for k, comp := range sl.comps {
		if _, ok := comp.(mpcons.Durable); ok {
			sl.spare[k] = comp
		}
		sl.comps[k] = nil
	}
}

// persist snapshots the slot's phase state into the durable store
// (Recovery only). Called after every delivered message for the slot,
// before the event ends — write-ahead relative to any reply the
// components sent within the event, since nothing leaves the simulator
// mid-event. A phase not built yet has nothing to remember: its entry
// stays as the store last had it, a just-built component's at first.
func (r *replica) persist(slot int) {
	if !r.sh.cfg.Recovery {
		return
	}
	sl := r.slots.get(slot)
	if sl == nil {
		return
	}
	snaps := r.snapshots(sl)
	for k, comp := range sl.comps {
		if d, ok := comp.(mpcons.Durable); ok {
			snaps[k] = d.Snapshot()
		}
	}
	*sl.store = slotStore{snaps: snaps, persisted: true}
}

// recover discards the volatile phase components after a restart; they
// rebuild lazily from the durable store. Without Recovery the whole
// replica is modeled as durable and a restart keeps its state.
func (r *replica) recover() {
	if !r.sh.cfg.Recovery {
		return
	}
	for s := r.slots.lo; s < r.slots.hi; s++ {
		if sl := r.slots.get(s); sl != nil {
			sl.wipe()
		}
	}
}

func (r *replica) handlePhase(from msgnet.ProcID, m msgnet.Msg) {
	comp := r.component(m.Slot, int(m.Phase))
	if comp == nil {
		return
	}
	comp.OnMessage(from, m)
	r.persist(m.Slot)
}

// handleLearned advances the compaction floor on client i's watermark w:
// once every client has reported one, slots below the minimum can never
// be proposed in again and their phase state is freed.
func (r *replica) handleLearned(i, w int) {
	if w > r.wm[i] {
		if r.wm[i] == 0 {
			r.heard++
		}
		r.wm[i] = w
	}
	if r.heard < len(r.wm) {
		return
	}
	floor := slices.Min(r.wm)
	if floor <= r.gcFloor {
		return
	}
	for s := r.gcFloor; s < min(floor, r.slots.hi); s++ {
		if sl := r.slots.get(s); sl != nil {
			r.release(sl)
		}
	}
	r.slots.trim(floor)
	r.gcFloor = floor
}

// slotServerEnv adapts a replica to one slot and phase: it posts the
// phase's messages under the slot's routing header.
type slotServerEnv struct {
	replica *replica
	slot    int
	phase   int
}

func (e *slotServerEnv) Self() msgnet.ProcID      { return e.replica.id }
func (e *slotServerEnv) Clients() []msgnet.ProcID { return e.replica.sh.clients }
func (e *slotServerEnv) Servers() []msgnet.ProcID { return e.replica.sh.servers }
func (e *slotServerEnv) Now() msgnet.Time         { return e.replica.node.Now() }
func (e *slotServerEnv) Send(to msgnet.ProcID, m msgnet.Msg) {
	m.Shard, m.Slot, m.Phase = int32(e.replica.sh.id), e.slot, uint8(e.phase)
	e.replica.node.Post(to, m)
}

package smr

import (
	"context"
	"fmt"
	"time"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/keyed"
	"repro/internal/lin"
	"repro/internal/mpcons"
	"repro/internal/msgnet"
	"repro/internal/trace"
)

// ShardedConfig parameterizes a sharded deployment.
type ShardedConfig struct {
	Config
	// Shards is the number of independent replicated logs (default 1).
	// Commands are hash-partitioned across them by key (ShardOf).
	Shards int
	// RetainResults keeps every SubmitResult in memory (Results). Off by
	// default: million-command sweeps only need the running aggregates
	// in Stats.
	RetainResults bool
	// OnlineCheck streams every per-key register history through an
	// incremental checker session (lin.Session) as commands land, so
	// linearizability checking overlaps the simulation instead of
	// buffering whole histories for a post-hoc pass: the raw per-key
	// traces are not retained (KeyTraces returns none) and
	// CheckLinearizable reads the sessions' verdicts. Combined with log
	// compaction this keeps run memory bounded by the compaction window
	// plus the sessions' live frontiers rather than the full history
	// length (checker API v2, DESIGN.md decision 11). Either way the
	// histories are one keyed.Set's (decision 28).
	OnlineCheck bool
	// CheckBudget bounds the search nodes each fed action may spend in a
	// per-key session when OnlineCheck is set (0: check.DefaultBudget).
	CheckBudget int
	// CheckContext, when non-nil, is the context the streaming per-key
	// sessions run under (OnlineCheck only): cancellation or deadline
	// expiry terminates the sessions mid-run, surfacing as an error from
	// CheckLinearizable. Nil means context.Background().
	CheckContext context.Context
	// ExactCheck forces the exact frontier engine on the per-key sessions
	// (OnlineCheck only). By default the sessions dispatch to the
	// register fast path (DESIGN.md, decision 15) — per-key histories are
	// in its fragment when writes carry unique values and reads unique
	// tags (SetCmd, GetCmd), as every workload's commands do, making each
	// action O(1) amortized and the check budget-free; the verdicts are
	// identical either way.
	ExactCheck bool
}

// ShardedStats aggregates submission outcomes across all shards.
type ShardedStats struct {
	Submitted    int64
	Landed       int64
	TotalLatency int64 // sum of per-submission latencies (message delays)
	Switches     int64
	Attempts     int64
	// FastPath counts submissions that resolved without a single phase
	// switch or retry (every attempted slot decided on the fast path).
	FastPath int64
	// Retries counts timeout/restart re-proposals across all clients.
	Retries        int64
	PerShardLanded []int64
}

// MeanLatency returns the mean end-to-end latency in message delays.
func (s ShardedStats) MeanLatency() float64 {
	if s.Landed == 0 {
		return 0
	}
	return float64(s.TotalLatency) / float64(s.Landed)
}

// FastPathRate returns the fraction of landed submissions that never
// left the fast path.
func (s ShardedStats) FastPathRate() float64 {
	if s.Landed == 0 {
		return 0
	}
	return float64(s.FastPath) / float64(s.Landed)
}

// ShardedCluster is an SMR deployment whose key space is hash-partitioned
// across N independent Shards (one speculative replicated log each)
// sharing one simulated network. Every client process runs a router that
// multiplexes its in-flight submissions per shard: submissions to the
// same shard queue sequentially (one log's client discipline), while
// submissions to different shards proceed concurrently. Every server
// process hosts one replica engine per shard behind a demultiplexer.
//
// Because linearizability is compositional and keys never cross shards,
// correctness decomposes: per-shard log agreement (CheckConsistency) and
// per-key linearizability of the recorded histories (CheckLinearizable)
// — see DESIGN.md, decision 10.
type ShardedCluster struct {
	net     *msgnet.Network
	cfg     ShardedConfig
	clients []msgnet.ProcID
	servers []msgnet.ProcID
	shards  []*Shard
	routers map[msgnet.ProcID]*router
	nodes   []*msgnet.Node // by client index
	stats   ShardedStats
	hist    *keyed.Set  // per-key histories, and txn components' (txn.go)
	txn     *TxnCluster // the transaction layer, when built by BuildTxn
	// onStart and onLand are SetHooks' observers (nil when unset).
	onStart func(c msgnet.ProcID, cmd Command, at msgnet.Time)
	onLand  func(SubmitResult)
}

// BuildSharded wires a sharded SMR cluster into net.
func BuildSharded(net *msgnet.Network, clients, servers []msgnet.ProcID, cfg ShardedConfig) (*ShardedCluster, error) {
	if len(clients) == 0 || len(servers) == 0 {
		return nil, fmt.Errorf("smr: need clients and servers")
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	sc := &ShardedCluster{
		net:     net,
		cfg:     cfg,
		clients: clients,
		servers: servers,
		routers: map[msgnet.ProcID]*router{},
	}
	sc.hist = keyed.New(keyed.Policy{Sessions: cfg.OnlineCheck, Retain: !cfg.OnlineCheck}, sc.openSession)
	sc.stats.PerShardLanded = make([]int64, cfg.Shards)
	for k := 0; k < cfg.Shards; k++ {
		sh := newShard(k, clients, servers, cfg.Config)
		sh.keepResults = cfg.RetainResults
		sh.rec = newShardRecorder(sc, sh)
		sc.shards = append(sc.shards, sh)
	}
	for _, id := range clients {
		r := &router{perShard: make([]*client, cfg.Shards)}
		for k, sh := range sc.shards {
			r.perShard[k] = sh.byID[id]
		}
		sc.routers[id] = r
		sc.nodes = append(sc.nodes, net.AddNode(id, r))
	}
	for _, id := range servers {
		m := &serverMux{perShard: make([]*replica, cfg.Shards)}
		for k, sh := range sc.shards {
			m.perShard[k] = sh.reps[id]
		}
		net.AddNode(id, m)
	}
	return sc, nil
}

// SetHooks registers observation callbacks: start fires when a submission
// begins executing (its invocation point under the client-sequential
// discipline), land when it resolves. Either may be nil.
func (sc *ShardedCluster) SetHooks(start func(c msgnet.ProcID, cmd Command, at msgnet.Time), land func(SubmitResult)) {
	sc.onStart, sc.onLand = start, land
}

// Shards returns the shard count.
func (sc *ShardedCluster) Shards() int { return len(sc.shards) }

// shardFor routes a command: transaction-protocol commands carry their
// shard explicitly, KV commands hash their key, anything else hashes its
// whole encoding (deterministic in every case).
func (sc *ShardedCluster) shardFor(cmd Command) int {
	if k, ok := txnCmdShard(cmd); ok && k >= 0 && k < len(sc.shards) {
		return k
	}
	key, ok := CmdKey(cmd)
	if !ok {
		key = string(cmd)
	}
	return ShardOf(key, len(sc.shards))
}

// SubmitAt schedules client c to submit cmd at time t. Submissions to
// the same shard queue sequentially per client; submissions to different
// shards run concurrently (the router multiplexes them).
func (sc *ShardedCluster) SubmitAt(c msgnet.ProcID, cmd Command, t msgnet.Time) {
	k := sc.shardFor(cmd)
	sc.stats.Submitted++
	sc.net.At(t, func() { sc.shards[k].byID[c].enqueue(cmd) })
}

// SubmitManyAt schedules a batch of submissions by client c at time t
// with a single simulator event, preserving cmds order per shard. Large
// sweeps use it to avoid one heap event per command.
func (sc *ShardedCluster) SubmitManyAt(c msgnet.ProcID, cmds []Command, t msgnet.Time) {
	sc.stats.Submitted += int64(len(cmds))
	sc.net.At(t, func() {
		lanes := sc.routers[c].perShard
		for _, cmd := range cmds {
			lanes[sc.shardFor(cmd)].enqueue(cmd)
		}
	})
}

// SubmitPaced schedules client c's commands as an open-loop feed: the
// commands partition into per-shard streams (preserving order), and
// every period starting at start the client enqueues the next command of
// every stream — one simulator event per step, self-rescheduling, so a
// million-command feed never materializes a million heap events. A
// non-positive period degenerates to SubmitManyAt (a closed-loop burst).
//
// Pacing models sustained load: each (client, shard) pipeline receives
// one command per period, so slot contention stays at realistic levels
// and clients advance their learned watermarks together (which is what
// lets compaction keep memory bounded on long runs).
func (sc *ShardedCluster) SubmitPaced(c msgnet.ProcID, cmds []Command, start, period msgnet.Time) {
	if period <= 0 {
		sc.SubmitManyAt(c, cmds, start)
		return
	}
	// Count, then fill one array: every stream is sized once.
	counts := make([]int, len(sc.shards))
	for _, cmd := range cmds {
		counts[sc.shardFor(cmd)]++
	}
	all := make([]Command, len(cmds))
	streams := make([][]Command, len(sc.shards))
	off := 0
	for k, n := range counts {
		streams[k] = all[off : off : off+n]
		off += n
	}
	for _, cmd := range cmds {
		k := sc.shardFor(cmd)
		streams[k] = append(streams[k], cmd)
	}
	sc.stats.Submitted += int64(len(cmds))
	lanes := sc.routers[c].perShard
	step := 0
	var feed func()
	feed = func() {
		more := false
		for k, s := range streams {
			if step >= len(s) {
				continue
			}
			lanes[k].enqueue(s[step])
			if step+1 < len(s) {
				more = true
			}
		}
		step++
		if more {
			sc.net.At(sc.net.Now()+period, feed)
		}
	}
	sc.net.At(start, feed)
}

// Run advances the simulation.
func (sc *ShardedCluster) Run(maxTime msgnet.Time) msgnet.Time { return sc.net.Run(maxTime) }

// Stats returns the aggregated submission statistics.
func (sc *ShardedCluster) Stats() ShardedStats {
	s := sc.stats
	s.PerShardLanded = append([]int64{}, sc.stats.PerShardLanded...)
	s.Retries = 0
	for _, sh := range sc.shards {
		for _, c := range sh.cls {
			s.Retries += c.retries
		}
	}
	return s
}

// Results returns landed submissions grouped by shard (completion order
// within a shard). Empty unless ShardedConfig.RetainResults.
func (sc *ShardedCluster) Results() []SubmitResult {
	var out []SubmitResult
	for _, sh := range sc.shards {
		out = append(out, sh.results...)
	}
	return out
}

// Log returns client c's view of shard k's replicated log: the slots it
// knows, unknown ones simply absent. Slots that hold no command carry a
// value no client submitted (the log's no-op). With compaction enabled
// the trimmed prefix is absent too.
func (sc *ShardedCluster) Log(k int, c msgnet.ProcID) map[int]Command {
	out := map[int]Command{}
	l := &sc.shards[k].byID[c].log
	for s := l.lo; s < l.hi; s++ {
		if e := l.get(s); e.known {
			out[s] = e.v
		}
	}
	return out
}

// CheckConsistency verifies per-shard log agreement: the online checks
// accumulated over every learn (agreement with the first learned value,
// each decided command the next undecided submission of its slot's
// owner, keys routed to their hash shard) plus the cross-client pass over
// the retained (untrimmed) log suffixes.
func (sc *ShardedCluster) CheckConsistency() error {
	for k, sh := range sc.shards {
		if err := sh.rec.err; err != nil {
			return fmt.Errorf("smr: shard %d: %w", k, err)
		}
		if err := sh.checkConsistency(); err != nil {
			return err
		}
	}
	return nil
}

// KeyTraces returns shard k's recorded per-key histories: one trace per
// key no transaction joined, each a well-formed register history (writes
// for sets, tagged reads for gets) in real-time order, aliasing the
// recorder's buffers (do not mutate). With OnlineCheck it returns none.
func (sc *ShardedCluster) KeyTraces(k int) []trace.Trace {
	var out []trace.Trace
	sc.hist.Traces(func(key string, joined bool, t trace.Trace) {
		if !joined && ShardOf(key, len(sc.shards)) == k {
			out = append(out, t)
		}
	})
	return out
}

// HistoryCheck summarizes a CheckLinearizable pass.
type HistoryCheck struct {
	Shards int
	Traces int   // per-key (and per-component) histories checked
	Ops    int64 // total operations across all histories
	Nodes  int64 // total search nodes spent
	// Online is true when the verdicts came from the streaming per-key
	// sessions rather than a post-hoc batch pass.
	Online bool
	// FeedWall is the wall-clock time the run spent feeding its online
	// sessions, one clock pair around every Invoke and Respond (Online
	// only; zero post hoc; CheckLinearizable excluded): the checking
	// overhead embedded in the simulation wall. The ~100ns of clock reads
	// per op biases any engine speedup computed from it conservatively
	// low. It counts even when a session erred: the time was spent.
	FeedWall time.Duration
}

// CheckLinearizable verifies every per-key history, and on a TxnCluster
// every component's (checker API v2: context-aware, functional options).
// Post hoc — the default — it checks every recorded history one-shot
// (register ADT, adt.TxnKV for a component) on check.Parallel's pool of
// GOMAXPROCS workers. With
// ShardedConfig.OnlineCheck it collects the sessions' verdicts (the
// options applied to the sessions at Build time). It returns an error for
// the first non-linearizable history, else the first checker failure.
func (sc *ShardedCluster) CheckLinearizable(ctx context.Context, opts ...check.Option) (HistoryCheck, error) {
	_, sum, err := sc.checkHistories(ctx, opts)
	return sum, err
}

// checkHistories reads the verdict of every keyed history: the live
// sessions' under OnlineCheck, else one one-shot pass.
func (sc *ShardedCluster) checkHistories(ctx context.Context, opts []check.Option) (keyed.Report, HistoryCheck, error) {
	var rep keyed.Report
	if sc.cfg.OnlineCheck {
		rep = sc.hist.Report()
	} else {
		// Witnesses off: a verdict and its nodes are all that is read. The
		// pass runs the exact engine, whose nodes the experiments report.
		opts = append(opts[:len(opts):len(opts)], check.WithWitness(false), check.WithExact(true))
		rep = sc.hist.Check(ctx, 0, func(t trace.Trace, joined bool) (lin.Result, error) {
			return lin.Check(ctx, histFolder(joined), t, opts...)
		})
	}
	sum := HistoryCheck{Shards: len(sc.shards), Traces: rep.Histories, Ops: rep.Ops, Nodes: rep.Nodes,
		Online: sc.cfg.OnlineCheck, FeedWall: rep.Wall}
	if rep.Verdict == check.Linearizable {
		return rep, sum, nil
	}
	what := fmt.Sprintf("shard %d key %q", ShardOf(rep.Key, len(sc.shards)), rep.Key)
	if sc.hist.Joined(rep.Key) {
		what = fmt.Sprintf("component %q", rep.Key)
	}
	if rep.Err != nil {
		return rep, sum, fmt.Errorf("smr: %s check: %w", what, rep.Err)
	}
	return rep, sum, fmt.Errorf("smr: %s history not linearizable: %s", what, rep.Reason)
}

// histFolder is the ADT a keyed history is checked against: the register
// for a plain key, adt.TxnKV for a component that transactions joined.
func histFolder(joined bool) adt.Folder {
	if joined {
		return adt.TxnKV{}
	}
	return adt.Register{}
}

// openSession opens an online session: the register fast path for a key
// (decision 15), the exact engine for a component. Its budget is per fed
// action, as every budget is (DESIGN.md decision 34), so a session that
// lives as long as the run never starves.
func (sc *ShardedCluster) openSession(joined bool) *lin.Session {
	return lin.NewSession(sc.cfg.CheckContext, histFolder(joined), check.WithBudget(sc.cfg.CheckBudget),
		check.WithWitness(false), check.WithExact(sc.cfg.ExactCheck))
}

// invoke opens client c's invocation of in on key's history and respond
// answers it through its handle, each charging the time an online
// session takes to the histories' wall (HistoryCheck.FeedWall).
func (sc *ShardedCluster) invoke(key string, c trace.ClientID, in trace.Value) keyed.Op {
	if sc.cfg.OnlineCheck {
		defer sc.chargeSince(time.Now())
	}
	return sc.hist.Invoke(key, c, in)
}

func (sc *ShardedCluster) respond(op keyed.Op, out trace.Value) {
	if sc.cfg.OnlineCheck {
		defer sc.chargeSince(time.Now())
	}
	sc.hist.Respond(op, out)
}

func (sc *ShardedCluster) chargeSince(t time.Time) { sc.hist.Charge(time.Since(t)) }

// pair records a component operation as one instantaneous pair (compProc).
func (sc *ShardedCluster) pair(key string, proc trace.ClientID, in, out trace.Value) {
	sc.respond(sc.invoke(key, proc, in), out)
}

// router is the client-side node handler of a sharded deployment: one
// shard-local client engine per shard, sharing the node.
type router struct {
	perShard []*client
}

func (r *router) Init(n *msgnet.Node) {
	for _, c := range r.perShard {
		c.Init(n)
	}
}

func (r *router) OnMsg(n *msgnet.Node, from msgnet.ProcID, m msgnet.Msg) {
	if k := int(m.Shard); k >= 0 && k < len(r.perShard) {
		r.perShard[k].handle(from, m)
	}
}

func (r *router) OnTick(n *msgnet.Node, t msgnet.Timer) {
	if k := int(t.Shard); k >= 0 && k < len(r.perShard) {
		r.perShard[k].tick(t)
	}
}

// OnRestart implements msgnet.RecoverableHandler: each shard-local
// client engine re-drives its live proposal or blocked landing.
func (r *router) OnRestart(n *msgnet.Node) {
	for _, c := range r.perShard {
		c.onRestart()
	}
}

// serverMux is the server-side node handler: one replica engine per
// shard, sharing the node.
type serverMux struct {
	perShard []*replica
}

func (m *serverMux) Init(n *msgnet.Node) {
	for _, r := range m.perShard {
		r.Init(n)
	}
}

func (m *serverMux) OnMsg(n *msgnet.Node, from msgnet.ProcID, msg msgnet.Msg) {
	k := int(msg.Shard)
	if k < 0 || k >= len(m.perShard) {
		return
	}
	switch {
	case msg.Kind < mpcons.HostKinds:
		m.perShard[k].handlePhase(from, msg)
	case msg.Kind == kindLearned:
		m.perShard[k].handleLearned(int(msg.B), int(msg.A))
	}
}

// OnTick implements msgnet.Receiver: no server phase arms a timer.
func (m *serverMux) OnTick(*msgnet.Node, msgnet.Timer) {}

// OnRestart implements msgnet.RecoverableHandler: each shard-local
// replica drops its volatile phase state and rebuilds from the durable
// store (Config.Recovery; a no-op in the full-durability model).
func (m *serverMux) OnRestart(n *msgnet.Node) {
	for _, r := range m.perShard {
		r.recover()
	}
}

// shardRecorder observes one shard (Shard.rec): it records per-key
// register histories in the cluster's keyed histories, replays the log
// in slot order to produce read outputs, verifies log agreement and each
// decision's submitter online (which is what permits clients to trim
// their logs under compaction), and aggregates submission statistics.
// What it keeps is bounded by what is in flight — the submissions not yet
// decided, and the slots some client has yet to learn or land — and none
// of it is looked up by command or by process: clients are indices, and
// slots are a window (DESIGN.md decision 27).
type shardRecorder struct {
	sc *ShardedCluster
	sh *Shard
	// ops[i] is the handle of the shard's client i's (client.index) one
	// submission in flight, answered at its land; the zero Op when none
	// is open, whose empty input no register input equals.
	ops []keyed.Op

	// subs[i] is client i's submissions not yet decided, oldest first, a
	// window over its submission count. Only a slot's owner proposes a
	// command there, one submission at a time and in the order submitted
	// (decision 30), so the first learn of a slot that is not the no-op
	// must be of the head of its owner's queue, which it pops (claim).
	subs []window[Command]
	// slots holds a record per slot from its first learn until its last
	// use ends: every client has learned it, it has replayed, and it has
	// landed if it holds a command. The window's mark is the lowest slot
	// still in use.
	slots window[recSlot]
	err   error

	// Slot-order replay: applied is the next slot to replay, state the
	// per-key register states.
	applied int
	state   map[string]adt.State

	// Transaction-layer replay state (txn.go). locks maps a key to the
	// transaction holding it between its prepare's replay (yes vote) and
	// its outcome marker's replay. Single-key operations on a locked key
	// defer — the replay cursor itself never blocks: their slots park in
	// waiting (per key, slot order), and their effects and outputs
	// materialize at unlock.
	locks   map[string]string
	waiting map[string][]int
}

// recSlot is the recorder's record of one slot. val is the first learned
// decision, which every later learn must equal, and learns counts the
// clients that have learned it; e is the decision parsed at its first
// learn, which the replay reads, and out the replayed output its land
// answers with.
type recSlot struct {
	val    Command
	learns int
	stage  slotStage
	e      slotEntry
	out    trace.Value
}

// slotStage is where a slot stands between its first learn and its last
// use.
type slotStage uint8

const (
	slotUnknown      slotStage = iota // not learned yet
	slotLearned                       // awaiting its replay
	slotReplayed                      // replayed: out awaits the land
	slotParked                        // replayed behind a transaction's lock
	slotParkedLanded                  // parked, and landed: the unlock ends it
	slotDone                          // replayed, and landed if it lands
)

// slotEntry is a decided command, parsed once at first learn: kind, key
// and arg are its KV parts, which the replay reads.
type slotEntry struct {
	key  string
	kind string
	arg  string
	reg  bool // a set or get: it projects onto a checkable operation
	// comp marks keys merged into a txn-connected component: in is then
	// the operation's adt.TxnKV input (the raw command, recSlot.val, names
	// its synthetic checker process, compProc). A plain key's register
	// input was built at start, and its operation holds it.
	comp bool
	// txn marks a transaction-protocol command: kind is then "txp" or
	// "txo", key the transaction's ID, and arg a prepare's operations or
	// an outcome's "c" or "a" (txnSlot's substrings of the command).
	txn bool
	in  trace.Value
}

func newShardRecorder(sc *ShardedCluster, sh *Shard) *shardRecorder {
	return &shardRecorder{
		sc:      sc,
		sh:      sh,
		ops:     make([]keyed.Op, len(sh.clients)),
		subs:    make([]window[Command], len(sh.clients)),
		state:   map[string]adt.State{},
		locks:   map[string]string{},
		waiting: map[string][]int{},
	}
}

// fail records the first violation (later ones would be cascades).
func (rec *shardRecorder) fail(format string, args ...any) {
	if rec.err == nil {
		rec.err = fmt.Errorf(format, args...)
	}
}

// submit notes cmd as client i's latest submission (client.enqueue).
func (rec *shardRecorder) submit(i int, cmd Command) {
	q := &rec.subs[i]
	*q.at(q.hi) = cmd
}

// claim pops cmd, first learned in slot, off the undecided submissions of
// the slot's owner: it must be the oldest one. That pins every decided
// command to one submission of the client that owns its slot, decided in
// the order the client submitted; a command that no client submitted,
// one in another client's slot, one decided twice and one decided before
// its client's earlier submission all fail here.
func (rec *shardRecorder) claim(slot int, cmd Command) {
	owner := slot % len(rec.sh.clients)
	q := &rec.subs[owner]
	if q.lo == q.hi || q.get(q.lo) != cmd {
		rec.fail("slot %d decided %q, not the next undecided submission of its owner, client %d", slot, cmd, owner)
		return
	}
	q.trim(q.lo + 1)
}

// start passes a submission's start to SetHooks' observer, then invokes
// a keyed command's operation on the key's history and keeps its handle
// in client i's slot. Keys entangled by transactions route into their
// component's merged TxnKV history instead, at their replay points
// (txn.go, compProc — the shrunken-interval soundness argument is made
// there), so nothing is recorded for them at submission. A start while
// the client's slot is open is not well-formed.
func (rec *shardRecorder) start(i int, cmd Command, at msgnet.Time) {
	c := rec.sh.clients[i]
	if rec.sc.onStart != nil {
		rec.sc.onStart(c, cmd, at)
	}
	kind, key, arg, ok := cmdParts(cmd)
	if !ok || rec.sc.hist.Joined(key) {
		return
	}
	in, ok := registerInput(kind, arg)
	if !ok {
		return
	}
	if o := &rec.ops[i]; o.Input() == "" {
		*o = rec.sc.invoke(key, trace.ClientID(c), in)
	} else {
		rec.sc.hist.Malformed(key, trace.Invoke(trace.ClientID(c), 1, in))
	}
}

// learn runs the online checks for one client's learn of slot's decision
// and queues the decision for slot-order replay. At a slot's first learn
// the command is claimed from its owner's submissions and parsed, once;
// the no-op is checked for agreement like any decision and replays as
// nothing. Every client learns a slot at most once, so a learn below the
// window's mark is a second one.
//
// A slot's record is freed once every client has learned it and it has
// replayed and landed. Under compaction the passive decision gossip keeps
// idle clients learning other clients' no-ops (smr.go, kindGossip) —
// their gossip learns arrive through this same hook, so records drain
// even when half the feeds end early; without compaction an idle client
// stops learning them and the window keeps every slot above the first
// it missed to the end of the run.
func (rec *shardRecorder) learn(slot int, cmd Command) {
	r := rec.slots.at(slot)
	switch {
	case r == nil:
		rec.fail("slot %d learned again after every client had learned it", slot)
		return
	case r.learns > 0:
		if r.val != cmd {
			rec.fail("slot %d decided both %q and %q", slot, r.val, cmd)
		}
	case cmd == noop:
		r.val, r.stage = cmd, slotLearned
	default:
		rec.claim(slot, cmd)
		r.val, r.stage, r.e = cmd, slotLearned, rec.parse(cmd)
	}
	r.learns++
	if r.learns == len(rec.sh.clients) {
		rec.free()
	}
}

// parse reads a decided command's parts for the replay, checking that it
// belongs to this shard.
func (rec *shardRecorder) parse(cmd Command) slotEntry {
	entry := slotEntry{}
	if kind, key, arg, ok := cmdParts(cmd); ok {
		if want := ShardOf(key, len(rec.sc.shards)); want != rec.sh.id {
			rec.fail("key %q (shard %d) leaked into shard %d", key, want, rec.sh.id)
		}
		entry.key, entry.kind, entry.arg = key, kind, arg
		if rec.sc.hist.Joined(key) {
			entry.comp = true
			entry.in, entry.reg = txnSingleInput(kind, key, arg)
		} else {
			entry.reg = kind == "set" || kind == "get"
		}
	} else if ts, ok := parseTxnCmd(cmd); ok {
		if ts.shard != rec.sh.id {
			rec.fail("transaction command for shard %d leaked into shard %d", ts.shard, rec.sh.id)
		}
		entry.txn, entry.key = true, ts.id
		switch {
		case ts.prep:
			entry.kind, entry.arg = "txp", ts.ops
		case ts.commit:
			entry.kind, entry.arg = "txo", "c"
		default:
			entry.kind, entry.arg = "txo", "a"
		}
	}
	return entry
}

// free moves the window's mark past the slots whose last use has ended.
func (rec *shardRecorder) free() {
	for w := &rec.slots; w.lo < w.hi; w.trim(w.lo + 1) {
		if r := w.at(w.lo); r.stage != slotDone || r.learns < len(rec.sh.clients) {
			return
		}
	}
}

// land passes client i's landing to SetHooks' observer, aggregates it,
// replays the log up to the landed slot and answers the client's open
// operation with the replayed response. A response with no operation
// open, or whose register input is not the open one's, is not
// well-formed; either way the client's slot closes, as its submission
// has landed.
func (rec *shardRecorder) land(i int, r SubmitResult) {
	if rec.sc.onLand != nil {
		rec.sc.onLand(r)
	}
	st := &rec.sc.stats
	st.Landed++
	st.TotalLatency += int64(r.Latency())
	st.Switches += int64(r.Switches)
	st.Attempts += int64(r.Attempts)
	if r.Switches == 0 && r.Retries == 0 {
		st.FastPath++
	}
	st.PerShardLanded[rec.sh.id]++

	for ; rec.applied <= r.Slot; rec.applied++ {
		s := rec.applied
		sr := rec.slots.at(s)
		if sr == nil || sr.stage != slotLearned {
			// Unreachable: a client lands only once it knows every slot
			// below its landing slot (decision 30), and learned them first.
			rec.fail("hole at slot %d below landed slot %d", s, r.Slot)
			return
		}
		e, stage := sr.e, slotReplayed
		var out trace.Value
		switch {
		case sr.val == noop:
			// Nothing to apply, and nothing lands here.
			stage = slotDone
		case e.txn:
			if tc := rec.sc.txn; tc != nil {
				if e.kind == "txp" {
					tc.prepReplayed(rec, e.key, e.arg)
				} else {
					tc.outcomeReplayed(rec, e.key, e.arg == "c")
				}
			} else {
				rec.fail("transaction command in slot %d without a transaction layer", s)
			}
		case e.reg && e.comp && rec.locks[e.key] != "":
			// The key is locked by an in-flight transaction: park the
			// operation — its effect and output materialize at unlock, in
			// slot order, so the transaction stays atomic in this shard's
			// total order. It enters the merged history at the unlock
			// drain, not here (see compProc: a lock can stay held for a
			// whole recovery timeout, and every parked operation held open
			// across that window multiplies the frontier).
			rec.waiting[e.key] = append(rec.waiting[e.key], s)
			stage = slotParked
		default:
			out = rec.replaySingle(e)
			if e.comp && e.reg {
				// An unparked component operation enters the merged
				// history as an instantaneous pair at its replay point
				// (see compProc): its output is computed from exactly
				// this state, so it linearizes here by construction, and
				// delayed land events (retries) cannot hold it open.
				rec.sc.pair(e.key, compProc(sr.val), e.in, out)
			}
		}
		sr = rec.slots.at(s) // a grown window moves its records
		sr.stage, sr.out = stage, out
	}

	sr := rec.slots.at(r.Slot)
	switch {
	case sr != nil && sr.stage == slotParked:
		// Landed while its slot is still parked behind a lock: its pair
		// enters the component's history when the transaction resolves.
		sr.stage = slotParkedLanded
		return
	case sr == nil || sr.stage != slotReplayed:
		rec.fail("no replayed output for slot %d", r.Slot)
		return
	}
	sr.stage = slotDone
	e, out := sr.e, sr.out
	rec.free()
	if !e.reg || e.comp {
		return // del, txp/txo, or a component operation's pair (compProc)
	}
	o := &rec.ops[i]
	if isRegisterInput(o.Input(), e.kind, e.arg) {
		rec.sc.respond(*o, out)
	} else {
		in, _ := registerInput(e.kind, e.arg)
		rec.sc.hist.Malformed(e.key, trace.Response(trace.ClientID(r.Client), 1, in, out))
	}
	*o = keyed.Op{}
}

// replaySingle applies one single-key operation to the shard's key
// states and returns its output, computed from the command's parts: a
// set stores its value, a get reads the stored one. A plain key's set
// stores what the register folder keeps of its input, the value up to
// any occurrence tag (adt.Untag); a component key's, the value (the
// TxnKV projection of a single-key command).
func (rec *shardRecorder) replaySingle(e slotEntry) trace.Value {
	switch {
	case !e.reg:
		return ""
	case e.kind == "get":
		return adt.ReadOutput(rec.keyVal(e.key))
	case e.comp:
		rec.state[e.key] = adt.State(e.arg)
	default:
		rec.state[e.key] = adt.State(adt.Untag(e.arg))
	}
	return adt.WriteOutput()
}

// keyVal reads a key's current replayed value (adt.Bottom when unset).
func (rec *shardRecorder) keyVal(key string) trace.Value {
	if s, ok := rec.state[key]; ok {
		return trace.Value(s)
	}
	return trace.Value(adt.Bottom)
}

// unlock releases a transaction's lock on key and drains the operations
// parked behind it, in slot order: each applies now, and the ones whose
// land is still to come leave their output for it.
func (rec *shardRecorder) unlock(key, id string) {
	if rec.locks[key] != id {
		rec.fail("unlock of %q by transaction %q but lock held by %q", key, id, rec.locks[key])
		return
	}
	delete(rec.locks, key)
	parked := rec.waiting[key]
	delete(rec.waiting, key)
	for _, s := range parked {
		sr := rec.slots.at(s)
		out := rec.replaySingle(sr.e)
		// The parked operation enters the merged history as an
		// instantaneous pair here, at the resolving transaction's
		// unlock — the point where its effect and output actually
		// materialize (see compProc).
		rec.sc.pair(sr.e.key, compProc(sr.val), sr.e.in, out)
		if sr.stage == slotParked {
			sr.stage, sr.out = slotReplayed, out
		} else {
			sr.stage = slotDone
		}
	}
	rec.free()
}

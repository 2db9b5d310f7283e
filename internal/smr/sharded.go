package smr

import (
	"context"
	"fmt"
	"time"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/keyed"
	"repro/internal/lin"
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
	// in its fragment by construction (writes carry unique command
	// values, reads unique tags), making Feed O(1) amortized and the
	// check budget-free; the verdicts are identical either way.
	ExactCheck bool
	// WindowEvery, when positive, buckets landed submissions into
	// fixed-width virtual-time windows (ShardedStats.Windows), keyed by
	// landing time. Fault experiments read fast-path rate per window to
	// see degradation and recovery around injected faults.
	WindowEvery msgnet.Time
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
	// Windows holds per-window landing aggregates (WindowEvery only).
	Windows []WindowStat
}

// WindowStat aggregates the submissions that landed in one virtual-time
// window [Start, End).
type WindowStat struct {
	Start, End msgnet.Time
	Landed     int64
	FastPath   int64 // landed with no switch and no retry
	Retried    int64 // landed after at least one retry
}

// FastPathRate returns the fraction of the window's landings that never
// left the fast path.
func (w WindowStat) FastPathRate() float64 {
	if w.Landed == 0 {
		return 0
	}
	return float64(w.FastPath) / float64(w.Landed)
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
// same shard queue sequentially (the single-log client discipline), while
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
	nodes   map[msgnet.ProcID]*msgnet.Node
	recs    []*shardRecorder
	stats   ShardedStats
	hist    *keyed.Set  // per-key histories, and txn components' (txn.go)
	txn     *TxnCluster // the transaction layer, when built by BuildTxn
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
		nodes:   map[msgnet.ProcID]*msgnet.Node{},
	}
	sc.hist = keyed.New(keyed.Policy{Sessions: cfg.OnlineCheck, Retain: !cfg.OnlineCheck}, sc.openSession)
	sc.stats.PerShardLanded = make([]int64, cfg.Shards)
	for k := 0; k < cfg.Shards; k++ {
		sh := newShard(net, k, clients, servers, cfg.Config)
		sh.keepResults = cfg.RetainResults
		rec := newShardRecorder(sc, sh)
		sh.onStart = rec.start
		sh.onLearn = rec.learn
		sh.onLand = rec.land
		sh.submitted = rec.submitted
		sc.shards = append(sc.shards, sh)
		sc.recs = append(sc.recs, rec)
	}
	for _, id := range clients {
		r := &router{perShard: make([]*client, cfg.Shards)}
		for k, sh := range sc.shards {
			r.perShard[k] = sh.byID[id]
		}
		sc.routers[id] = r
		sc.nodes[id] = net.AddNode(id, r)
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
	sc.net.At(t, func() {
		sc.recs[k].submit(cmd)
		sc.shards[k].byID[c].enqueue(cmd)
	})
}

// SubmitManyAt schedules a batch of submissions by client c at time t
// with a single simulator event, preserving cmds order per shard. Large
// sweeps use it to avoid one heap event per command.
func (sc *ShardedCluster) SubmitManyAt(c msgnet.ProcID, cmds []Command, t msgnet.Time) {
	sc.stats.Submitted += int64(len(cmds))
	sc.net.At(t, func() {
		for _, cmd := range cmds {
			k := sc.shardFor(cmd)
			sc.recs[k].submit(cmd)
			sc.shards[k].byID[c].enqueue(cmd)
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
	streams := make([][]Command, len(sc.shards))
	for _, cmd := range cmds {
		k := sc.shardFor(cmd)
		streams[k] = append(streams[k], cmd)
	}
	sc.stats.Submitted += int64(len(cmds))
	step := 0
	var feed func()
	feed = func() {
		more := false
		for k, s := range streams {
			if step >= len(s) {
				continue
			}
			sc.recs[k].submit(s[step])
			sc.shards[k].byID[c].enqueue(s[step])
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
	s.Windows = append([]WindowStat{}, sc.stats.Windows...)
	s.Retries = 0
	for _, sh := range sc.shards {
		for _, id := range sc.clients {
			s.Retries += sh.byID[id].retries
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

// Log returns client c's view of shard k's replicated log (see
// Cluster.Log; trimmed prefixes are absent under compaction).
func (sc *ShardedCluster) Log(k int, c msgnet.ProcID) map[int]Command {
	out := map[int]Command{}
	for s, v := range sc.shards[k].byID[c].log {
		out[s] = v
	}
	return out
}

// CheckConsistency verifies per-shard log agreement: the online checks
// accumulated over every learn (agreement with the first learned value,
// decisions were submitted to that shard, every command in at most one
// slot, keys routed to their hash shard) plus the cross-client pass over
// the retained (untrimmed) log suffixes.
func (sc *ShardedCluster) CheckConsistency() error {
	for k, rec := range sc.recs {
		if rec.err != nil {
			return fmt.Errorf("smr: shard %d: %w", k, rec.err)
		}
		if err := sc.shards[k].checkConsistency(); err != nil {
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
	// sessions, one clock pair around every Feed (Online only; zero post
	// hoc; CheckLinearizable itself excluded): the checking overhead
	// embedded in the simulation wall. The ~100ns of clock reads per op
	// biases any engine speedup computed from it conservatively low. It
	// counts even when a session erred: the time was spent regardless.
	FeedWall time.Duration
}

// CheckLinearizable verifies every per-key history, and on a TxnCluster
// every component's (checker API v2: context-aware, functional options).
// Post hoc — the default — it checks every recorded history one-shot
// (register ADT, adt.TxnKV for a component) on the batch checkers' pool
// of check.WithWorkers workers (GOMAXPROCS by default). With
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
		// Witnesses off: a verdict and its nodes are all that is read.
		opts = append(opts[:len(opts):len(opts)], check.WithWitness(false))
		rep = sc.hist.Check(ctx, check.NewSettings(opts...).Workers, func(t trace.Trace, joined bool) (lin.Result, error) {
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
	return lin.NewSessionFast(sc.cfg.CheckContext, histFolder(joined), check.WithBudget(sc.cfg.CheckBudget),
		check.WithWitness(false), check.WithExact(sc.cfg.ExactCheck))
}

// feed routes one action into the keyed histories, charging the time an
// online session takes to their wall (HistoryCheck.FeedWall).
func (sc *ShardedCluster) feed(key string, a trace.Action) {
	if !sc.cfg.OnlineCheck {
		sc.hist.Feed(key, a)
		return
	}
	t := time.Now()
	sc.hist.Feed(key, a)
	sc.hist.Charge(time.Since(t))
}

// feedPair feeds a component operation as one instantaneous pair (compProc).
func (sc *ShardedCluster) feedPair(key string, proc trace.ClientID, in, out trace.Value) {
	sc.feed(key, trace.Invoke(proc, 1, in))
	sc.feed(key, trace.Response(proc, 1, in, out))
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

func (r *router) OnMessage(n *msgnet.Node, from msgnet.ProcID, payload any) {
	if shard, ok := clientShard(payload); ok && shard >= 0 && shard < len(r.perShard) {
		r.perShard[shard].handle(from, payload)
	}
}

func (r *router) OnTimer(n *msgnet.Node, name string) {
	if shard, ok := splitProgressTimer(name); ok {
		if shard >= 0 && shard < len(r.perShard) {
			r.perShard[shard].onProgressTimer()
		}
		return
	}
	shard, phase, rest, ok := splitPhaseTimer(name)
	if !ok || shard < 0 || shard >= len(r.perShard) {
		return
	}
	r.perShard[shard].handleTimer(phase, rest)
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

func (m *serverMux) OnMessage(n *msgnet.Node, from msgnet.ProcID, payload any) {
	switch env := payload.(type) {
	case slotEnvelope:
		if env.shard >= 0 && env.shard < len(m.perShard) {
			m.perShard[env.shard].handleEnvelope(from, env)
		}
	case learnedEnvelope:
		if env.shard >= 0 && env.shard < len(m.perShard) {
			m.perShard[env.shard].handleLearned(from, env.watermark)
		}
	}
}

func (m *serverMux) OnTimer(n *msgnet.Node, name string) {
	shard, slot, phase, rest, ok := splitSlotTimer(name)
	if !ok || shard < 0 || shard >= len(m.perShard) {
		return
	}
	m.perShard[shard].handleTimer(slot, phase, rest)
}

// OnRestart implements msgnet.RecoverableHandler: each shard-local
// replica drops its volatile phase state and rebuilds from the durable
// store (Config.Recovery; a no-op in the full-durability model).
func (m *serverMux) OnRestart(n *msgnet.Node) {
	for _, r := range m.perShard {
		r.recover()
	}
}

// shardRecorder observes one shard through its hooks: it feeds per-key
// register histories to the cluster's keyed histories, replays the log
// in slot order to produce read outputs, verifies log agreement online
// (which is what permits clients to trim their logs under compaction),
// and aggregates submission statistics.
type shardRecorder struct {
	sc  *ShardedCluster
	sh  *Shard
	reg adt.Register

	// subSlot tracks every command submitted to this shard: -1 until its
	// decision is first learned, then the slot it landed in. It backs the
	// online checks (decided ⇒ submitted; at most one slot per command).
	subSlot map[Command]int
	// slotVal and learns back the online agreement check: the first
	// learned value per slot, compared against every later learn; entries
	// are freed once all clients have learned the slot and it has been
	// replayed.
	slotVal map[int]Command
	learns  map[int]int
	err     error

	// Slot-order replay: pending holds decided-but-unreplayed commands
	// (parsed once at first learn), applied is the next slot to replay,
	// state the per-key register states, slotOut the replayed operations
	// awaiting their response.
	pending map[int]slotEntry
	applied int
	state   map[string]adt.State
	slotOut map[int]slotReplay

	// Transaction-layer replay state (txn.go). locks maps a key to the
	// transaction holding it between its prepare's replay (yes vote) and
	// its outcome marker's replay. Single-key operations on a locked key
	// defer — the replay cursor itself never blocks: their slots park in
	// waiting (per key, slot order) and deferred, their effects and
	// outputs materialize at unlock, and a land that arrives while its
	// slot is still deferred parks in landWait until then.
	locks    map[string]string
	waiting  map[string][]deferredSlot
	deferred map[int]bool
	landWait map[int]msgnet.ProcID
}

// slotEntry is a decided command with its KV projection, parsed once at
// first learn.
type slotEntry struct {
	key string
	in  trace.Value
	reg bool // projects onto a checkable operation (set/get)
	// comp marks keys merged into a txn-connected component: the
	// projection is then an adt.TxnKV input, kind/arg carry the parsed
	// command for replay, and cmd the raw command (it names the
	// operation's synthetic checker process, compProc).
	comp bool
	kind string
	arg  string
	cmd  Command
	// txn is set for transaction-protocol commands (prepare/outcome).
	txn *txnSlot
	// noop marks a slot that holds no command.
	noop bool
}

// deferredSlot is a replayed-but-locked single-key operation awaiting
// its key's unlock.
type deferredSlot struct {
	slot int
	e    slotEntry
}

// slotReplay is a replayed slot awaiting its submitter's response.
type slotReplay struct {
	key  string
	in   trace.Value
	out  trace.Value
	reg  bool
	comp bool
}

func newShardRecorder(sc *ShardedCluster, sh *Shard) *shardRecorder {
	return &shardRecorder{
		sc:       sc,
		sh:       sh,
		subSlot:  map[Command]int{},
		slotVal:  map[int]Command{},
		learns:   map[int]int{},
		pending:  map[int]slotEntry{},
		state:    map[string]adt.State{},
		slotOut:  map[int]slotReplay{},
		locks:    map[string]string{},
		waiting:  map[string][]deferredSlot{},
		deferred: map[int]bool{},
		landWait: map[int]msgnet.ProcID{},
	}
}

// fail records the first violation (later ones would be cascades).
func (rec *shardRecorder) fail(format string, args ...any) {
	if rec.err == nil {
		rec.err = fmt.Errorf(format, args...)
	}
}

func (rec *shardRecorder) submit(cmd Command) {
	if _, dup := rec.subSlot[cmd]; dup {
		rec.fail("command %q submitted twice (log entries must be unique)", cmd)
		return
	}
	rec.subSlot[cmd] = -1
}

// submitted reports whether cmd was ever submitted to this shard.
func (rec *shardRecorder) submitted(cmd Command) bool {
	_, ok := rec.subSlot[cmd]
	return ok
}

// start records the invocation of a keyed command's operation in the
// key's history. Keys entangled by transactions route into their
// component's merged TxnKV history instead, at their replay points
// (txn.go, compProc — the shrunken-interval soundness argument is made
// there), so nothing is recorded for them at submission.
func (rec *shardRecorder) start(c msgnet.ProcID, cmd Command, at msgnet.Time) {
	kind, key, arg, ok := cmdParts(cmd)
	if !ok || rec.sc.hist.Joined(key) {
		return
	}
	if in, ok := registerInput(kind, arg); ok {
		rec.sc.feed(key, trace.Invoke(trace.ClientID(c), 1, in))
	}
}

// learn runs the online consistency checks for one (client, slot,
// decision) observation and queues the decision for slot-order replay.
// The command is parsed exactly once, at first learn; the no-op is
// checked for agreement like any decision and replays as nothing.
//
// slotVal/learns entries are freed once every client has learned the
// slot and it has been replayed. Under compaction the passive decision
// gossip keeps idle clients learning other clients' no-ops (smr.go,
// gossipEnvelope) — their gossip learns arrive through this same hook,
// so the entries drain even when half the feeds end early; without
// compaction an idle client stops learning them and entries for later
// slots persist to the end of the run.
func (rec *shardRecorder) learn(c msgnet.ProcID, slot int, cmd Command) {
	if prev, ok := rec.slotVal[slot]; ok {
		if prev != cmd {
			rec.fail("slot %d decided both %q and %q", slot, prev, cmd)
		}
	} else if cmd == noop {
		rec.slotVal[slot] = cmd
		rec.pending[slot] = slotEntry{noop: true}
	} else {
		rec.slotVal[slot] = cmd
		switch s, submitted := rec.subSlot[cmd]; {
		case !submitted:
			rec.fail("slot %d decided unsubmitted command %q", slot, cmd)
		case s >= 0 && s != slot:
			rec.fail("command %q decided in slots %d and %d", cmd, s, slot)
		default:
			rec.subSlot[cmd] = slot
		}
		entry := slotEntry{}
		if kind, key, arg, ok := cmdParts(cmd); ok {
			if want := ShardOf(key, len(rec.sc.shards)); want != rec.sh.id {
				rec.fail("key %q (shard %d) leaked into shard %d", key, want, rec.sh.id)
			}
			entry.key, entry.kind, entry.arg = key, kind, arg
			if rec.sc.hist.Joined(key) {
				entry.comp, entry.cmd = true, cmd
				entry.in, entry.reg = txnSingleInput(kind, key, arg)
			} else {
				entry.in, entry.reg = registerInput(kind, arg)
			}
		} else if ts, ok := parseTxnCmd(cmd); ok {
			if ts.shard != rec.sh.id {
				rec.fail("transaction command for shard %d leaked into shard %d", ts.shard, rec.sh.id)
			}
			entry.txn = &ts
		}
		rec.pending[slot] = entry
	}
	rec.learns[slot]++
	if rec.learns[slot] == len(rec.sh.clients) && slot < rec.applied {
		delete(rec.slotVal, slot)
		delete(rec.learns, slot)
	}
}

// land replays the log up to the landed slot and records the response.
func (rec *shardRecorder) land(r SubmitResult) {
	st := &rec.sc.stats
	st.Landed++
	st.TotalLatency += int64(r.Latency())
	st.Switches += int64(r.Switches)
	st.Attempts += int64(r.Attempts)
	fast := r.Switches == 0 && r.Retries == 0
	if fast {
		st.FastPath++
	}
	st.PerShardLanded[rec.sh.id]++
	if we := rec.sc.cfg.WindowEvery; we > 0 {
		b := int(r.End / we)
		for len(st.Windows) <= b {
			s := msgnet.Time(len(st.Windows)) * we
			st.Windows = append(st.Windows, WindowStat{Start: s, End: s + we})
		}
		ws := &st.Windows[b]
		ws.Landed++
		if fast {
			ws.FastPath++
		}
		if r.Retries > 0 {
			ws.Retried++
		}
	}

	for rec.applied <= r.Slot {
		e, ok := rec.pending[rec.applied]
		if !ok {
			// Unreachable: a client lands only once it knows every slot
			// below its landing slot (decision 30), and learned them first.
			rec.fail("hole at slot %d below landed slot %d", rec.applied, r.Slot)
			return
		}
		switch {
		case e.noop:
			// Nothing to apply, and nothing lands here.
		case e.txn != nil:
			if tc := rec.sc.txn; tc != nil {
				if e.txn.prep {
					tc.prepReplayed(rec, e.txn)
				} else {
					tc.outcomeReplayed(rec, e.txn)
				}
			} else {
				rec.fail("transaction command in slot %d without a transaction layer", rec.applied)
			}
			rec.slotOut[rec.applied] = slotReplay{}
		case e.reg && e.comp && rec.locks[e.key] != "":
			// The key is locked by an in-flight transaction: park the
			// operation — its effect and output materialize at unlock, in
			// slot order, so the transaction stays atomic in this shard's
			// total order. It enters the merged history at the unlock
			// drain, not here (see compProc: a lock can stay held for a
			// whole recovery timeout, and every parked operation held open
			// across that window multiplies the frontier).
			rec.waiting[e.key] = append(rec.waiting[e.key], deferredSlot{slot: rec.applied, e: e})
			rec.deferred[rec.applied] = true
		default:
			rp := rec.replaySingle(e)
			if e.comp && e.reg {
				// An unparked component operation enters the merged
				// history as an instantaneous pair at its replay point
				// (see compProc): its output is computed from exactly
				// this state, so it linearizes here by construction, and
				// delayed land events (retries) cannot hold it open.
				rec.sc.feedPair(e.key, compProc(e.cmd), e.in, rp.out)
			}
			rec.slotOut[rec.applied] = rp
		}
		delete(rec.pending, rec.applied)
		if rec.learns[rec.applied] == len(rec.sh.clients) {
			delete(rec.slotVal, rec.applied)
			delete(rec.learns, rec.applied)
		}
		rec.applied++
	}

	rp, ok := rec.slotOut[r.Slot]
	if !ok {
		if rec.deferred[r.Slot] {
			// Landed while its slot is still parked behind a lock: the
			// response is emitted when the transaction resolves.
			rec.landWait[r.Slot] = r.Client
			return
		}
		rec.fail("no replayed output for slot %d", r.Slot)
		return
	}
	delete(rec.slotOut, r.Slot)
	if !rp.reg {
		return // command has no checkable projection (del, txp/txo); no trace
	}
	rec.emitResponse(r.Client, rp)
}

// replaySingle applies one single-key operation to the shard's key
// states and computes its output: through the register fold for
// fast-path keys, directly on the stored value for component keys (the
// TxnKV projection of a single-key command).
func (rec *shardRecorder) replaySingle(e slotEntry) slotReplay {
	rp := slotReplay{key: e.key, in: e.in, reg: e.reg, comp: e.comp}
	if !e.reg {
		return rp
	}
	if e.comp {
		if e.kind == "set" {
			rec.state[e.key] = adt.State(e.arg)
			rp.out = adt.WriteOutput()
		} else {
			rp.out = adt.ReadOutput(rec.keyVal(e.key))
		}
		return rp
	}
	s, seen := rec.state[e.key]
	if !seen {
		s = rec.reg.Empty()
	}
	rp.out = rec.reg.Out(s, e.in)
	rec.state[e.key] = rec.reg.Step(s, e.in)
	return rp
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
// land already arrived respond immediately.
func (rec *shardRecorder) unlock(key, id string) {
	if rec.locks[key] != id {
		rec.fail("unlock of %q by transaction %q but lock held by %q", key, id, rec.locks[key])
		return
	}
	delete(rec.locks, key)
	ds := rec.waiting[key]
	delete(rec.waiting, key)
	for _, d := range ds {
		rp := rec.replaySingle(d.e)
		// The parked operation enters the merged history as an
		// instantaneous pair here, at the resolving transaction's
		// unlock — the point where its effect and output actually
		// materialize (see compProc).
		rec.sc.feedPair(d.e.key, compProc(d.e.cmd), d.e.in, rp.out)
		delete(rec.deferred, d.slot)
		if c, landed := rec.landWait[d.slot]; landed {
			delete(rec.landWait, d.slot)
			rec.emitResponse(c, rp)
		} else {
			rec.slotOut[d.slot] = rp
		}
	}
}

// emitResponse records a replayed operation's response in the key's
// history. Component operations' histories were fully recorded at
// replay/unlock (see compProc), so they are no-ops here.
func (rec *shardRecorder) emitResponse(c msgnet.ProcID, rp slotReplay) {
	if !rp.comp {
		rec.sc.feed(rp.key, trace.Response(trace.ClientID(c), 1, rp.in, rp.out))
	}
}

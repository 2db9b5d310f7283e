package smr

import (
	"context"
	"sort"
	"strconv"
	"strings"

	"repro/internal/adt"
	"repro/internal/check"
	"repro/internal/msgnet"
	"repro/internal/trace"
)

// This file layers cross-shard atomic transactions on the sharded SMR
// cluster (DESIGN.md, decision 18): a coordinator client reserves one log
// slot per participant shard with a prepare command ("txp"), each shard
// votes at the prepare's replay point (abort on lock conflict or a failed
// CAS condition — no blocking, so no distributed deadlock), and the
// outcome is fixed by a single deterministic decision event (all votes
// collected ⇒ commit iff all yes; a recovery watchdog ⇒ abort). Outcome
// markers ("txo") then land in every participant log so each shard
// applies or discards the transaction's writes at a definite point in its
// total order — the logs stay totally ordered, compaction and
// crash–recovery (PR 6/PR 9) are untouched, and an aborted transaction
// leaves no per-key effect.
//
// Checking: a transaction entangles its keys, so Herlihy–Wing locality no
// longer decomposes correctness per key. TxnCluster joins each submitted
// transaction's keys in the cluster's keyed.Set: a txn-connected
// component's history — single-key and composite transaction operations
// — is one trace over the adt.TxnKV product folder, checked by the exact
// frontier engine. Untouched keys stay on the register fast path.

// txnCmdSep separates the fields of one encoded transactional operation
// inside a command, and txnOpSep separates operations; both are distinct
// from cmdSep so a prepare command still splits into a fixed number of
// top-level fields.
const (
	txnCmdSep = "\x1d"
	txnOpSep  = "\x1e"
)

// TxnOpKind enumerates the operation kinds of a transaction.
type TxnOpKind int

const (
	// TxnRead reads a key (MultiGet component).
	TxnRead TxnOpKind = iota
	// TxnWrite writes a key unconditionally (MultiPut component).
	TxnWrite
	// TxnCAS writes a key if it currently holds Expect (adt.Bottom for
	// "unset") — the read-modify-write component. A failed condition
	// aborts the whole transaction.
	TxnCAS
)

// TxnOp is one operation of a transaction.
type TxnOp struct {
	Kind   TxnOpKind
	Key    string
	Value  string // written value (TxnWrite, TxnCAS)
	Expect string // expected current value (TxnCAS; adt.Bottom for unset)
}

// Txn is a multi-key atomic command: all operations take effect together
// or none do. IDs must be unique across a run (they tag log entries).
// Keys must be distinct across the operations of one transaction.
type Txn struct {
	ID  string
	Ops []TxnOp
}

// TxnConfig parameterizes the transaction layer.
type TxnConfig struct {
	// RecoveryTimeout is the virtual-time budget per transaction: if the
	// transaction is still undecided when it expires (e.g. its coordinator
	// crashed mid-prepare), a deterministic watchdog aborts it and drives
	// abort markers through a surviving client so no shard stays wedged
	// behind the transaction's locks. Zero disables the watchdog.
	RecoveryTimeout msgnet.Time
}

// TxnStats aggregates transaction outcomes.
type TxnStats struct {
	Started   int64
	Committed int64
	// AbortedConflict counts aborts from a prepare hitting a key locked
	// by another in-flight transaction (the deadlock-avoidance vote).
	AbortedConflict int64
	// AbortedCondition counts aborts from a failed TxnCAS condition.
	AbortedCondition int64
	// AbortedRecovery counts aborts by the recovery watchdog.
	AbortedRecovery int64
	// PrepsLanded and OutcomesLanded count the transaction-protocol log
	// entries replayed (each also counts in ShardedStats.Landed).
	PrepsLanded    int64
	OutcomesLanded int64
}

// Resolved returns the number of transactions that reached a decision.
func (s TxnStats) Resolved() int64 {
	return s.Committed + s.AbortedConflict + s.AbortedCondition + s.AbortedRecovery
}

// CommitRate returns the fraction of resolved transactions that
// committed.
func (s TxnStats) CommitRate() float64 {
	if r := s.Resolved(); r > 0 {
		return float64(s.Committed) / float64(r)
	}
	return 0
}

// abort reasons, for stats classification.
const (
	abortConflict = iota
	abortCondition
	abortRecovery
)

// txnState is the cluster-side record of one transaction.
type txnState struct {
	spec     Txn
	coord    msgnet.ProcID
	shards   []int         // participant shards, ascending
	shardOps map[int][]int // shard -> indices into spec.Ops
	votes    map[int]bool
	noReason int // first no-vote's classification
	// locked marks shards that voted yes and hold their keys' locks
	// until their outcome marker replays.
	locked     map[int]bool
	resolvedOn map[int]bool // shards whose outcome marker has replayed
	reads      map[int]trace.Value
	decided    bool
	committed  bool
	redrives   int
}

// TxnCluster extends a ShardedCluster with cross-shard atomic
// transactions and txn-connected-component checking. Single-key traffic
// submits through the embedded ShardedCluster exactly as before; keys
// untouched by any transaction keep their per-key register fast-path
// sessions. Keys are joined at submission, before Run.
type TxnCluster struct {
	*ShardedCluster
	tcfg   TxnConfig
	txns   map[string]*txnState
	tstats TxnStats
}

// BuildTxn wires a sharded SMR cluster with a transaction layer into net.
func BuildTxn(net *msgnet.Network, clients, servers []msgnet.ProcID, cfg ShardedConfig, tcfg TxnConfig) (*TxnCluster, error) {
	sc, err := BuildSharded(net, clients, servers, cfg)
	if err != nil {
		return nil, err
	}
	tc := &TxnCluster{
		ShardedCluster: sc,
		tcfg:           tcfg,
		txns:           map[string]*txnState{},
	}
	sc.txn = tc
	return tc, nil
}

// checkTxnField panics on a field that would corrupt the command or
// input grammars (a caller bug, like a duplicate node ID).
func checkTxnField(kind, field string) {
	if strings.ContainsAny(field, cmdSep+txnCmdSep+txnOpSep) || strings.Contains(field, adt.TagSep) {
		panic("smr: " + kind + " contains a reserved separator")
	}
}

// SubmitTxnAt schedules client c to coordinate transaction txn starting
// at time t: one prepare command per participant shard enters c's
// per-shard submission queues together (the router runs them
// concurrently), and the recovery watchdog — when configured — is armed
// RecoveryTimeout later. Must be called before Run, like every submission
// scheduler: key components must be fixed before any command lands.
func (tc *TxnCluster) SubmitTxnAt(c msgnet.ProcID, txn Txn, t msgnet.Time) {
	st := tc.registerTxn(c, txn, t)
	tc.net.At(t, func() { tc.submitTxnPreps(st) })
}

// registerTxn validates and records a transaction at schedule time —
// joining its keys into one component and arming the recovery watchdog —
// without submitting its prepares yet.
func (tc *TxnCluster) registerTxn(c msgnet.ProcID, txn Txn, t msgnet.Time) *txnState {
	if len(txn.Ops) == 0 {
		panic("smr: transaction with no operations")
	}
	if _, dup := tc.txns[txn.ID]; dup || txn.ID == "" {
		panic("smr: transaction ID " + strconv.Quote(txn.ID) + " empty or reused")
	}
	checkTxnField("txn id", txn.ID)
	seen := map[string]bool{}
	for _, op := range txn.Ops {
		checkTxnField("key", op.Key)
		checkTxnField("value", op.Value)
		checkTxnField("expect", op.Expect)
		if op.Key == "" || seen[op.Key] {
			panic("smr: transaction keys must be non-empty and distinct")
		}
		if (op.Kind == TxnWrite || op.Kind == TxnCAS) && op.Value == "" {
			panic("smr: transaction writes need a value")
		}
		seen[op.Key] = true
	}
	st := &txnState{
		spec:       txn,
		coord:      c,
		shardOps:   map[int][]int{},
		votes:      map[int]bool{},
		locked:     map[int]bool{},
		resolvedOn: map[int]bool{},
		reads:      map[int]trace.Value{},
	}
	for i, op := range txn.Ops {
		k := ShardOf(op.Key, len(tc.shards))
		st.shardOps[k] = append(st.shardOps[k], i)
		tc.hist.Join(txn.Ops[0].Key, op.Key)
	}
	for k := range st.shardOps {
		st.shards = append(st.shards, k)
	}
	sort.Ints(st.shards)
	tc.txns[txn.ID] = st
	tc.tstats.Started++
	tc.stats.Submitted += int64(len(st.shards))
	if tc.tcfg.RecoveryTimeout > 0 {
		tc.net.At(t+tc.tcfg.RecoveryTimeout, func() {
			if !st.decided {
				tc.decide(st, false, abortRecovery)
			}
		})
	}
	return st
}

// submitTxnPreps enqueues a registered transaction's prepare commands on
// its coordinator's per-shard queues.
func (tc *TxnCluster) submitTxnPreps(st *txnState) {
	for _, k := range st.shards {
		cmd := prepCmd(st.spec.ID, k, st.spec.Ops, st.shardOps[k])
		tc.shards[k].rec.submit(cmd)
		tc.shards[k].byID[st.coord].enqueue(cmd)
	}
}

// MixedItem is one element of a mixed feed: a single-key command, or a
// transaction when Txn is non-nil.
type MixedItem struct {
	Cmd Command
	Txn *Txn
}

// SubmitMixedPaced schedules client c's mixed feed as an open loop: one
// item every period starting at start, one self-rescheduling simulator
// event per step (like SubmitPaced). All transactions are registered up
// front — the key components the checker partitions by must be fixed
// before any command lands — while their prepares enter the queues at
// their paced slots. A non-positive period submits everything at start.
func (tc *TxnCluster) SubmitMixedPaced(c msgnet.ProcID, items []MixedItem, start, period msgnet.Time) {
	states := make([]*txnState, len(items))
	n := 0
	for j, it := range items {
		if it.Txn != nil {
			at := start
			if period > 0 {
				at += period * msgnet.Time(j)
			}
			states[j] = tc.registerTxn(c, *it.Txn, at)
		} else {
			n++
		}
	}
	tc.stats.Submitted += int64(n)
	step := 0
	var feed func()
	feed = func() {
		for {
			it := items[step]
			if st := states[step]; st != nil {
				tc.submitTxnPreps(st)
			} else {
				k := tc.shardFor(it.Cmd)
				tc.shards[k].rec.submit(it.Cmd)
				tc.shards[k].byID[c].enqueue(it.Cmd)
			}
			step++
			if step >= len(items) {
				return
			}
			if period > 0 {
				tc.net.At(tc.net.Now()+period, feed)
				return
			}
		}
	}
	if len(items) > 0 {
		tc.net.At(start, feed)
	}
}

// prepCmd encodes the prepare command for one participant shard: the
// shard's slice of the transaction's operations rides along so the
// shard's vote is computable from its own log alone.
func prepCmd(id string, shard int, ops []TxnOp, idx []int) Command {
	enc := make([]string, len(idx))
	for i, j := range idx {
		op := ops[j]
		switch op.Kind {
		case TxnRead:
			enc[i] = "r" + txnCmdSep + op.Key + txnCmdSep + strconv.Itoa(j)
		case TxnWrite:
			enc[i] = "w" + txnCmdSep + op.Key + txnCmdSep + strconv.Itoa(j) + txnCmdSep + op.Value
		default:
			enc[i] = "c" + txnCmdSep + op.Key + txnCmdSep + strconv.Itoa(j) + txnCmdSep + op.Expect + txnCmdSep + op.Value
		}
	}
	return Command("txp" + cmdSep + id + cmdSep + strconv.Itoa(shard) + cmdSep + strings.Join(enc, txnOpSep))
}

// outcomeCmd encodes an outcome marker. The sender and attempt fields
// keep markers for the same (transaction, shard) distinct across redrive
// rounds — log entries must be unique, and only the first marker to
// replay resolves the shard.
func outcomeCmd(id string, shard int, commit bool, sender msgnet.ProcID, attempt int) Command {
	oc := "a"
	if commit {
		oc = "c"
	}
	return Command("txo" + cmdSep + id + cmdSep + strconv.Itoa(shard) + cmdSep + oc +
		cmdSep + string(sender) + "." + strconv.Itoa(attempt))
}

// txnSlot is a parsed transaction-protocol log entry.
type txnSlot struct {
	prep   bool
	id     string
	shard  int
	ops    []txnSlotOp // prepare only
	commit bool        // outcome only
}

// txnSlotOp is one operation of a prepare entry, with its index into the
// transaction's full operation list.
type txnSlotOp struct {
	kind   byte // 'r', 'w' or 'c'
	key    string
	idx    int
	expect string
	val    string
}

// parseTxnCmd parses a transaction-protocol command; ok is false outside
// the grammar (KV commands and foreign commands alike).
func parseTxnCmd(cmd Command) (ts txnSlot, ok bool) {
	parts := strings.Split(string(cmd), cmdSep)
	if len(parts) < 4 {
		return ts, false
	}
	shard, err := strconv.Atoi(parts[2])
	if err != nil {
		return ts, false
	}
	ts.id, ts.shard = parts[1], shard
	switch {
	case parts[0] == "txp" && len(parts) == 4:
		ts.prep = true
		for _, enc := range strings.Split(parts[3], txnOpSep) {
			fs := strings.Split(enc, txnCmdSep)
			var op txnSlotOp
			switch {
			case len(fs) == 3 && fs[0] == "r":
				op = txnSlotOp{kind: 'r', key: fs[1]}
			case len(fs) == 4 && fs[0] == "w":
				op = txnSlotOp{kind: 'w', key: fs[1], val: fs[3]}
			case len(fs) == 5 && fs[0] == "c":
				op = txnSlotOp{kind: 'c', key: fs[1], expect: fs[3], val: fs[4]}
			default:
				return ts, false
			}
			if op.idx, err = strconv.Atoi(fs[2]); err != nil {
				return ts, false
			}
			ts.ops = append(ts.ops, op)
		}
		return ts, true
	case parts[0] == "txo" && len(parts) == 5:
		ts.commit = parts[3] == "c"
		return ts, ts.commit || parts[3] == "a"
	}
	return ts, false
}

// txnCmdShard routes a transaction-protocol command to its explicit
// shard; ok is false for other commands.
func txnCmdShard(cmd Command) (int, bool) {
	s := string(cmd)
	if !strings.HasPrefix(s, "txp"+cmdSep) && !strings.HasPrefix(s, "txo"+cmdSep) {
		return 0, false
	}
	parts := strings.SplitN(s, cmdSep, 4)
	if len(parts) < 4 {
		return 0, false
	}
	shard, err := strconv.Atoi(parts[2])
	return shard, err == nil
}

// prepReplayed evaluates shard rec's vote at the prepare's replay point —
// the transaction's serialization point in that shard's log. The vote is
// no on a lock conflict with an earlier unresolved transaction (deadlock
// avoidance: never wait, abort instead) or a failed CAS condition;
// otherwise the shard locks the transaction's keys (reads too — a
// MultiGet's values must stay current until the decision) and reports
// its read values.
func (tc *TxnCluster) prepReplayed(rec *shardRecorder, ts *txnSlot) {
	tc.tstats.PrepsLanded++
	st, ok := tc.txns[ts.id]
	if !ok {
		rec.fail("prepare for unknown transaction %q", ts.id)
		return
	}
	if st.decided {
		if st.committed {
			// Commit needs every shard's yes vote, which only this replay
			// could have produced.
			rec.fail("transaction %q committed before shard %d prepared", ts.id, rec.sh.id)
		}
		return // already aborted (watchdog or early-abort won): no lock
	}
	conflict, condFail := false, false
	for _, op := range ts.ops {
		if _, held := rec.locks[op.key]; held {
			conflict = true
		}
		if op.kind == 'c' && string(rec.keyVal(op.key)) != op.expect {
			condFail = true
		}
	}
	if conflict || condFail {
		reason := abortCondition
		if conflict {
			reason = abortConflict
		}
		tc.voteNo(st, rec.sh.id, reason)
		return
	}
	for _, op := range ts.ops {
		if op.kind == 'r' {
			st.reads[op.idx] = rec.keyVal(op.key)
		}
		rec.locks[op.key] = ts.id
	}
	st.locked[rec.sh.id] = true
	st.votes[rec.sh.id] = true
	if len(st.votes) == len(st.shards) {
		tc.decide(st, true, 0)
	}
}

// voteNo records a no vote and aborts immediately (2PC early abort: a
// single no decides the outcome, and shards that have not prepared yet
// will see the decision and skip locking).
func (tc *TxnCluster) voteNo(st *txnState, shard, reason int) {
	st.votes[shard] = false
	if !st.decided {
		tc.decide(st, false, reason)
	}
}

// decide fixes a transaction's outcome — the single decision event every
// shard's outcome marker defers to — feeds the composite operation into
// its component's checker session, and submits one outcome marker per
// participant shard. For recovery aborts the markers are driven by a
// surviving client (deterministically chosen), since the coordinator may
// be gone for good.
func (tc *TxnCluster) decide(st *txnState, commit bool, reason int) {
	st.decided, st.committed = true, commit
	switch {
	case commit:
		tc.tstats.Committed++
	case reason == abortConflict:
		tc.tstats.AbortedConflict++
	case reason == abortCondition:
		tc.tstats.AbortedCondition++
	default:
		tc.tstats.AbortedRecovery++
	}

	in := adt.Tag(adt.TxnInput(txnKVOps(st.spec.Ops), !commit), st.spec.ID)
	out := adt.TxnAbortOutput()
	if commit {
		var reads []trace.Value
		for i, op := range st.spec.Ops {
			if op.Kind == TxnRead {
				reads = append(reads, st.reads[i])
			}
		}
		out = adt.TxnCommitOutput(reads)
	}
	// The composite operation is fed as an instantaneous invocation/
	// response pair at the decision point, which always lies inside the
	// transaction's true interval: its reads were collected under locks
	// still held now, and its writes are invisible until the outcome
	// markers replay later — so a correct run always linearizes here,
	// while a leaked effect still contradicts some neighbor's output.
	tc.pair(st.spec.Ops[0].Key, trace.ClientID(string(st.coord)+"#t"), in, out)

	sender := st.coord
	if n := tc.nodes[sender]; reason == abortRecovery || (n != nil && n.Crashed()) {
		// A crashed sender's queue only drains after a restart that may
		// never come; a surviving client must drive the markers.
		sender = tc.recoveryClient(st.coord)
	}
	tc.stats.Submitted += int64(len(st.shards))
	for _, k := range st.shards {
		cmd := outcomeCmd(st.spec.ID, k, commit, sender, 0)
		tc.shards[k].rec.submit(cmd)
		tc.shards[k].byID[sender].enqueue(cmd)
	}
	if tc.tcfg.RecoveryTimeout > 0 {
		tc.net.At(tc.net.Now()+tc.tcfg.RecoveryTimeout, func() { tc.redriveOutcomes(st) })
	}
}

// redriveOutcomes resubmits outcome markers for shards that still have
// not resolved the transaction — the sender of the first round may have
// crashed for good with markers still queued. Redriven markers are new
// log entries (the attempt number keeps them unique); a shard that
// resolves meanwhile ignores the duplicate at replay. Re-arms itself
// until every shard has resolved.
func (tc *TxnCluster) redriveOutcomes(st *txnState) {
	var missing []int
	for _, k := range st.shards {
		if !st.resolvedOn[k] {
			missing = append(missing, k)
		}
	}
	if len(missing) == 0 {
		return
	}
	st.redrives++
	sender := tc.recoveryClient(st.coord)
	tc.stats.Submitted += int64(len(missing))
	for _, k := range missing {
		cmd := outcomeCmd(st.spec.ID, k, st.committed, sender, st.redrives)
		tc.shards[k].rec.submit(cmd)
		tc.shards[k].byID[sender].enqueue(cmd)
	}
	tc.net.At(tc.net.Now()+tc.tcfg.RecoveryTimeout, func() { tc.redriveOutcomes(st) })
}

// recoveryClient picks the client that drives recovery-abort markers:
// the first non-crashed client after the coordinator in cluster order
// (falling back to the coordinator's successor if all are down — the
// markers then land after its restart).
func (tc *TxnCluster) recoveryClient(coord msgnet.ProcID) msgnet.ProcID {
	i := 0
	for j, c := range tc.clients {
		if c == coord {
			i = j
			break
		}
	}
	for off := 1; off <= len(tc.clients); off++ {
		c := tc.clients[(i+off)%len(tc.clients)]
		if n := tc.nodes[c]; n != nil && !n.Crashed() {
			return c
		}
	}
	return tc.clients[(i+1)%len(tc.clients)]
}

// outcomeReplayed resolves a transaction on shard rec at its outcome
// marker's replay point: a committed transaction's writes apply to the
// shard's key states here (its definite point in the shard's total
// order), locks release, and deferred single-key operations drain.
// Markers can replay before their shard's prepare (a recovery abort
// does not wait for prepares) — then there is nothing to unlock.
func (tc *TxnCluster) outcomeReplayed(rec *shardRecorder, ts *txnSlot) {
	tc.tstats.OutcomesLanded++
	st, ok := tc.txns[ts.id]
	if !ok {
		rec.fail("outcome marker for unknown transaction %q", ts.id)
		return
	}
	if !st.decided || ts.commit != st.committed {
		rec.fail("outcome marker (commit=%v) disagrees with transaction %q decision", ts.commit, ts.id)
		return
	}
	if st.resolvedOn[rec.sh.id] {
		return // duplicate marker from a redrive round: already resolved
	}
	st.resolvedOn[rec.sh.id] = true
	if !st.locked[rec.sh.id] {
		return // never prepared here, or voted no: no locks, no effects
	}
	if st.committed {
		for _, i := range st.shardOps[rec.sh.id] {
			op := st.spec.Ops[i]
			if op.Kind == TxnWrite || op.Kind == TxnCAS {
				rec.state[op.Key] = adt.State(op.Value)
			}
		}
	}
	for _, i := range st.shardOps[rec.sh.id] {
		rec.unlock(st.spec.Ops[i].Key, ts.id)
	}
}

// txnKVOps encodes a transaction's operations for the adt.TxnKV input
// grammar.
func txnKVOps(ops []TxnOp) []string {
	enc := make([]string, len(ops))
	for i, op := range ops {
		switch op.Kind {
		case TxnRead:
			enc[i] = adt.TxnOpRead(op.Key)
		case TxnWrite:
			enc[i] = adt.TxnOpWrite(op.Key, trace.Value(op.Value))
		default:
			enc[i] = adt.TxnOpCAS(op.Key, trace.Value(op.Expect), trace.Value(op.Value))
		}
	}
	return enc
}

// TxnStats returns the transaction outcome counters.
func (tc *TxnCluster) TxnStats() TxnStats { return tc.tstats }

// TxnCheck summarizes a CheckTxnLinearizable pass: the per-key summary
// for fast-path keys plus the merged component histories.
type TxnCheck struct {
	HistoryCheck
	// Components is the number of txn-connected components checked, each
	// as one merged multi-object history over adt.TxnKV.
	Components int
	// ComponentOps counts operations across all merged histories
	// (composite transactions count once); LargestComponent is the
	// biggest single history.
	ComponentOps     int64
	LargestComponent int64
	// ComponentKeys counts keys entangled by transactions; FastPathKeys
	// counts keys that stayed on the per-key register fast path.
	ComponentKeys int
	FastPathKeys  int
}

// CheckTxnLinearizable verifies the full run, exactly as
// CheckLinearizable does — every fast-path key's register history and
// every txn-connected component's merged history against the adt.TxnKV
// product folder — and adds the component counts.
func (tc *TxnCluster) CheckTxnLinearizable(ctx context.Context, opts ...check.Option) (TxnCheck, error) {
	rep, hc, err := tc.checkHistories(ctx, opts)
	return TxnCheck{HistoryCheck: hc, Components: rep.Components, ComponentOps: rep.ComponentOps,
		LargestComponent: rep.LargestComponent, ComponentKeys: rep.JoinedKeys,
		FastPathKeys: rep.Histories - rep.Components}, err
}

// TxnOutcome reports a transaction's decision: ok is false while it is
// undecided; reads holds a committed transaction's read values in
// operation order.
func (tc *TxnCluster) TxnOutcome(id string) (committed bool, reads []trace.Value, ok bool) {
	st, found := tc.txns[id]
	if !found || !st.decided {
		return false, nil, false
	}
	if !st.committed {
		return false, nil, true
	}
	for i, op := range st.spec.Ops {
		if op.Kind == TxnRead {
			reads = append(reads, st.reads[i])
		}
	}
	return true, reads, true
}

// UnresolvedShards counts (transaction, shard) pairs where a decided
// transaction's outcome marker never replayed — locks that were still
// held when the run ended.
func (tc *TxnCluster) UnresolvedShards() int {
	n := 0
	for _, st := range tc.txns {
		if !st.decided {
			continue
		}
		for _, k := range st.shards {
			if !st.resolvedOn[k] {
				n++
			}
		}
	}
	return n
}

// PendingTxns returns the IDs of transactions that never reached a
// decision (e.g. a permanently crashed coordinator with no watchdog),
// sorted for determinism.
func (tc *TxnCluster) PendingTxns() []string {
	var out []string
	for id, st := range tc.txns {
		if !st.decided {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// txnSingleInput projects a single-key KV command onto the adt.TxnKV
// input grammar, for keys whose history merges into a component.
func txnSingleInput(kind, key, arg string) (in trace.Value, ok bool) {
	switch kind {
	case "set":
		return adt.TxnWriteInput(key, trace.Value(arg)), true
	case "get":
		return adt.Tag(adt.TxnReadInput(key), arg), true
	}
	return "", false
}

// compProc is the synthetic checker process of one single-key operation
// in a merged component history, derived from its command (log entries
// are unique, so the process is too). One process per operation, not per
// (client, shard) lane: a client's submissions pipeline across shards,
// and a response parked behind a transaction's lock is emitted after the
// same lane's next command has already been invoked — so operations of
// one client can genuinely overlap and cannot share a strictly-
// alternating process.
//
// A component operation is fed as an instantaneous pair at its effect
// point — the moment its output is computed and its effect applied:
//
//   - an unparked single-key operation at its replay point;
//   - a parked single-key operation at the unlock drain of the
//     transaction that held its key;
//   - the composite transaction at its decision event.
//
// Every effect point lies inside the operation's true interval
// (invocation after submission, response with exactly the output the
// client later receives, at or before its delivery), and an interval
// contained in the true one can only under-report overlap: any
// linearization found under the shrunken intervals is valid under the
// true ones, so there are no false "linearizable" verdicts. The shrink
// is also what keeps the exact frontier engine's breadth bounded online.
// Intervals held open from submission to response stay open across whole
// retry cycles under contention — and across a full recovery timeout
// when a coordinator crash leaves keys locked — and the frontier must
// track every commit order of the concurrent unclaimed operations: a
// factorial blowup observed in practice at ~10 open operations in a
// single feed. With effect-point pairs the fed history is sequential in
// replay order, so each feed extends one chain and the check verifies
// the load-bearing property directly: the outputs the cluster actually
// emitted fold through adt.TxnKV in the order effects were applied —
// committed transactions atomic, aborted ones effect-free, reads
// consistent. Real-time order is preserved by construction: an
// operation submitted after another's response also replays after it.
func compProc(cmd Command) trace.ClientID {
	return trace.ClientID("k#" + string(cmd))
}

package smr

import (
	"context"
	"slices"
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

// txnState is the cluster-side record of one transaction: its
// participants in ascending shard order, and its read values by
// operation index. A transaction touches few shards, so a participant is
// found by a scan.
type txnState struct {
	spec      Txn
	coord     int // the coordinator's client index
	parts     []txnPart
	reads     []trace.Value // a read's value, set when its shard votes yes
	decided   bool
	committed bool
	redrives  int
}

// txnPart is one participant shard of a transaction.
type txnPart struct {
	shard int
	ops   []int // indices into spec.Ops, ascending
	voted bool
	// locked marks a shard that voted yes and holds its keys' locks
	// until its outcome marker replays.
	locked   bool
	resolved bool // its outcome marker has replayed
}

// part returns the participant record of shard k, nil if k is none.
func (st *txnState) part(k int) *txnPart {
	for i := range st.parts {
		if st.parts[i].shard == k {
			return &st.parts[i]
		}
	}
	return nil
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
	idx := make([]int, len(txn.Ops))
	for i, op := range txn.Ops {
		checkTxnField("key", op.Key)
		checkTxnField("value", op.Value)
		checkTxnField("expect", op.Expect)
		if op.Key == "" || slices.ContainsFunc(txn.Ops[:i], func(o TxnOp) bool { return o.Key == op.Key }) {
			panic("smr: transaction keys must be non-empty and distinct")
		}
		if (op.Kind == TxnWrite || op.Kind == TxnCAS) && op.Value == "" {
			panic("smr: transaction writes need a value")
		}
		idx[i] = i
	}
	// The participants' operation indices are runs of one slice, sorted
	// by shard and in operation order within a shard.
	shard := func(i int) int { return ShardOf(txn.Ops[i].Key, len(tc.shards)) }
	slices.SortStableFunc(idx, func(a, b int) int { return shard(a) - shard(b) })
	st := &txnState{spec: txn, coord: tc.shards[0].byID[c].index, parts: make([]txnPart, 0, len(idx)), reads: make([]trace.Value, len(idx))}
	for lo, hi := 0, 1; lo < len(idx); lo, hi = hi, hi+1 {
		for hi < len(idx) && shard(idx[hi]) == shard(idx[lo]) {
			hi++
		}
		st.parts = append(st.parts, txnPart{shard: shard(idx[lo]), ops: idx[lo:hi:hi]})
	}
	for _, op := range txn.Ops {
		tc.hist.Join(txn.Ops[0].Key, op.Key)
	}
	tc.txns[txn.ID] = st
	tc.tstats.Started++
	tc.stats.Submitted += int64(len(st.parts))
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
	for _, p := range st.parts {
		tc.shards[p.shard].cls[st.coord].enqueue(prepCmd(st.spec.ID, p.shard, st.spec.Ops, p.ops))
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
	lanes := tc.routers[c].perShard
	step := 0
	var feed func()
	feed = func() {
		for {
			it := items[step]
			if st := states[step]; st != nil {
				tc.submitTxnPreps(st)
			} else {
				lanes[tc.shardFor(it.Cmd)].enqueue(it.Cmd)
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
	var w sizedWriter
	for w.pass() {
		w.str("txp" + cmdSep)
		w.str(id)
		w.str(cmdSep)
		w.int(shard)
		w.str(cmdSep)
		for n, j := range idx {
			op := ops[j]
			if n > 0 {
				w.str(txnOpSep)
			}
			w.op(op, txnCmdSep, j)
		}
	}
	return Command(w.b.String())
}

// letter returns the kind's letter in the command and adt.TxnKV
// grammars; every kind but a read or a write encodes as a CAS.
func (k TxnOpKind) letter() string {
	switch k {
	case TxnRead:
		return "r"
	case TxnWrite:
		return "w"
	}
	return "c"
}

// sizedWriter builds a string in one allocation: its loop
//
//	var w sizedWriter
//	for w.pass() {
//		... writes ...
//	}
//
// makes the same writes twice, once only to sum their length, then into
// w.b grown to exactly that length.
type sizedWriter struct {
	b      strings.Builder
	n      int
	passes int
}

// pass starts the next pass; false after the second.
func (w *sizedWriter) pass() bool {
	if w.passes++; w.passes == 2 {
		w.b.Grow(w.n)
	}
	return w.passes <= 2
}

func (w *sizedWriter) str(s string) {
	if w.passes == 1 {
		w.n += len(s)
	} else {
		w.b.WriteString(s)
	}
}

func (w *sizedWriter) int(i int) {
	var d [20]byte
	if n := strconv.AppendInt(d[:0], int64(i), 10); w.passes == 1 {
		w.n += len(n)
	} else {
		w.b.Write(n)
	}
}

// op writes one operation, its fields joined by sep: the kind's letter,
// the key, the index j unless it is negative, then a CAS's expected value
// and a written value.
func (w *sizedWriter) op(op TxnOp, sep string, j int) {
	l := op.Kind.letter()
	w.str(l)
	w.str(sep)
	w.str(op.Key)
	if j >= 0 {
		w.str(sep)
		w.int(j)
	}
	if l == "c" {
		w.str(sep)
		w.str(op.Expect)
	}
	if l != "r" {
		w.str(sep)
		w.str(op.Value)
	}
}

// outcomeCmd encodes an outcome marker. The sender and attempt fields
// keep markers for the same (transaction, shard) distinct across redrive
// rounds, so each log entry names its round; only the first marker to
// replay resolves the shard.
func outcomeCmd(id string, shard int, commit bool, sender msgnet.ProcID, attempt int) Command {
	oc := "a"
	if commit {
		oc = "c"
	}
	return Command("txo" + cmdSep + id + cmdSep + strconv.Itoa(shard) + cmdSep + oc +
		cmdSep + string(sender) + "." + strconv.Itoa(attempt))
}

// txnSlot is a parsed transaction-protocol log entry; its fields are
// substrings of the command.
type txnSlot struct {
	prep   bool
	id     string
	shard  int
	ops    string // prepare only: its operations, read by cutPrepOp
	commit bool   // outcome only
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

// cutTxnHeader reads a transaction-protocol command's kind ("txp" or
// "txo"), transaction ID and shard; rest is what follows the shard. ok
// is false for every other command.
func cutTxnHeader(cmd Command) (kind, id string, shard int, rest string, ok bool) {
	kind, rest, _ = strings.Cut(string(cmd), cmdSep)
	if kind != "txp" && kind != "txo" {
		return "", "", 0, "", false
	}
	id, rest, ok = strings.Cut(rest, cmdSep)
	sh, rest, ok2 := strings.Cut(rest, cmdSep)
	if !ok || !ok2 {
		return "", "", 0, "", false
	}
	shard, err := strconv.Atoi(sh)
	return kind, id, shard, rest, err == nil
}

// parseTxnCmd parses a transaction-protocol command; ok is false outside
// the grammar (KV commands and foreign commands alike).
func parseTxnCmd(cmd Command) (ts txnSlot, ok bool) {
	kind, id, shard, rest, ok := cutTxnHeader(cmd)
	if !ok {
		return ts, false
	}
	ts.id, ts.shard = id, shard
	if kind == "txp" {
		if strings.Contains(rest, cmdSep) {
			return ts, false
		}
		ts.prep, ts.ops = true, rest
		for more := true; more; {
			if _, rest, more, ok = cutPrepOp(rest); !ok {
				return ts, false
			}
		}
		return ts, true
	}
	oc, sender, found := strings.Cut(rest, cmdSep)
	if !found || strings.Contains(sender, cmdSep) {
		return ts, false
	}
	ts.commit = oc == "c"
	return ts, ts.commit || oc == "a"
}

// cutPrepOp parses the first operation of a prepare's txnOpSep-joined
// list and returns the list after it; more is false at the last
// operation, ok false on a grammar violation.
func cutPrepOp(enc string) (op txnSlotOp, rest string, more, ok bool) {
	enc, rest, more = strings.Cut(enc, txnOpSep)
	var fs [5]string
	n := 0
	for found := true; found; n++ {
		if n == len(fs) {
			return op, rest, more, false
		}
		fs[n], enc, found = strings.Cut(enc, txnCmdSep)
	}
	switch {
	case n == 3 && fs[0] == "r":
		op = txnSlotOp{kind: 'r', key: fs[1]}
	case n == 4 && fs[0] == "w":
		op = txnSlotOp{kind: 'w', key: fs[1], val: fs[3]}
	case n == 5 && fs[0] == "c":
		op = txnSlotOp{kind: 'c', key: fs[1], expect: fs[3], val: fs[4]}
	default:
		return op, rest, more, false
	}
	var err error
	op.idx, err = strconv.Atoi(fs[2])
	return op, rest, more, err == nil
}

// txnCmdShard routes a transaction-protocol command to its explicit
// shard; ok is false for other commands.
func txnCmdShard(cmd Command) (int, bool) {
	_, _, shard, _, ok := cutTxnHeader(cmd)
	return shard, ok
}

// prepReplayed evaluates shard rec's vote at the prepare's replay point —
// the transaction's serialization point in that shard's log. The vote is
// no on a lock conflict with an earlier unresolved transaction (deadlock
// avoidance: never wait, abort instead) or a failed CAS condition;
// otherwise the shard locks the transaction's keys (reads too — a
// MultiGet's values must stay current until the decision) and reports
// its read values. ops is the prepare's operation list, read in place.
func (tc *TxnCluster) prepReplayed(rec *shardRecorder, id, ops string) {
	tc.tstats.PrepsLanded++
	st, ok := tc.txns[id]
	if !ok {
		rec.fail("prepare for unknown transaction %q", id)
		return
	}
	if st.decided {
		if st.committed {
			// Commit needs every shard's yes vote, which only this replay
			// could have produced.
			rec.fail("transaction %q committed before shard %d prepared", id, rec.sh.id)
		}
		return // already aborted (watchdog or early-abort won): no lock
	}
	p := st.part(rec.sh.id)
	if p == nil {
		rec.fail("prepare of transaction %q on shard %d, not a participant", id, rec.sh.id)
		return
	}
	conflict, condFail := false, false
	for rest, more := ops, true; more; {
		var op txnSlotOp
		op, rest, more, _ = cutPrepOp(rest)
		if _, held := rec.locks[op.key]; held {
			conflict = true
		}
		if op.kind == 'c' && string(rec.keyVal(op.key)) != op.expect {
			condFail = true
		}
		if op.idx < 0 || op.idx >= len(st.reads) {
			rec.fail("prepare of transaction %q names operation %d of %d", id, op.idx, len(st.reads))
			return
		}
	}
	if conflict || condFail {
		reason := abortCondition
		if conflict {
			reason = abortConflict
		}
		tc.voteNo(st, p, reason)
		return
	}
	for rest, more := ops, true; more; {
		var op txnSlotOp
		op, rest, more, _ = cutPrepOp(rest)
		if op.kind == 'r' {
			st.reads[op.idx] = rec.keyVal(op.key)
		}
		rec.locks[op.key] = id
	}
	p.locked, p.voted = true, true
	if !slices.ContainsFunc(st.parts, func(p txnPart) bool { return !p.voted }) {
		tc.decide(st, true, 0)
	}
}

// voteNo records a no vote and aborts immediately (2PC early abort: a
// single no decides the outcome, and shards that have not prepared yet
// will see the decision and skip locking).
func (tc *TxnCluster) voteNo(st *txnState, p *txnPart, reason int) {
	p.voted = true
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

	in, out := txnKVInput(st.spec, commit), st.kvOutput()
	// The composite operation is fed as an instantaneous invocation/
	// response pair at the decision point, which always lies inside the
	// transaction's true interval: its reads were collected under locks
	// still held now, and its writes are invisible until the outcome
	// markers replay later — so a correct run always linearizes here,
	// while a leaked effect still contradicts some neighbor's output.
	tc.pair(st.spec.Ops[0].Key, trace.ClientID(string(tc.clients[st.coord])+"#t"), in, out)

	sender := st.coord
	if reason == abortRecovery || tc.nodes[sender].Crashed() {
		// A crashed sender's queue only drains after a restart that may
		// never come; a surviving client must drive the markers.
		sender = tc.recoveryClient(st.coord)
	}
	tc.stats.Submitted += int64(len(st.parts))
	for _, p := range st.parts {
		tc.shards[p.shard].cls[sender].enqueue(outcomeCmd(st.spec.ID, p.shard, commit, tc.clients[sender], 0))
	}
	if tc.tcfg.RecoveryTimeout > 0 {
		tc.net.At(tc.net.Now()+tc.tcfg.RecoveryTimeout, func() { tc.redriveOutcomes(st) })
	}
}

// txnKVInput returns txn's composite adt.TxnKV input, tagged with its ID,
// in one allocation: adt.Tag(adt.TxnInput(ops, !commit), txn.ID) with
// ops in the TxnOpRead/TxnOpWrite/TxnOpCAS encoding.
func txnKVInput(txn Txn, commit bool) trace.Value {
	var w sizedWriter
	for w.pass() {
		if commit {
			w.str("t:")
		} else {
			w.str("n:")
		}
		for i, op := range txn.Ops {
			if i > 0 {
				w.str(adt.TxnOpSep)
			}
			w.op(op, adt.TxnFieldSep, -1)
		}
		w.str(adt.TagSep)
		w.str(txn.ID)
	}
	return w.b.String()
}

// kvOutput returns a decided transaction's adt.TxnKV output: the abort
// output, or adt.TxnCommitOutput of its read values in operation order,
// built in one allocation (none without reads).
func (st *txnState) kvOutput() trace.Value {
	switch {
	case !st.committed:
		return adt.TxnAbortOutput()
	case !slices.ContainsFunc(st.spec.Ops, func(op TxnOp) bool { return op.Kind == TxnRead }):
		return adt.TxnCommitOutput(nil)
	}
	var w sizedWriter
	for w.pass() {
		w.str("c:")
		sep := ""
		for i, op := range st.spec.Ops {
			if op.Kind == TxnRead {
				w.str(sep)
				w.str(st.reads[i])
				sep = adt.TxnFieldSep
			}
		}
	}
	return w.b.String()
}

// redriveOutcomes resubmits outcome markers for shards that still have
// not resolved the transaction — the sender of the first round may have
// crashed for good with markers still queued. Redriven markers are new
// log entries (the attempt number tells them apart); a shard that
// resolves meanwhile ignores the duplicate at replay. Re-arms itself
// until every shard has resolved.
func (tc *TxnCluster) redriveOutcomes(st *txnState) {
	var missing []int
	for _, p := range st.parts {
		if !p.resolved {
			missing = append(missing, p.shard)
		}
	}
	if len(missing) == 0 {
		return
	}
	st.redrives++
	sender := tc.recoveryClient(st.coord)
	tc.stats.Submitted += int64(len(missing))
	for _, k := range missing {
		tc.shards[k].cls[sender].enqueue(outcomeCmd(st.spec.ID, k, st.committed, tc.clients[sender], st.redrives))
	}
	tc.net.At(tc.net.Now()+tc.tcfg.RecoveryTimeout, func() { tc.redriveOutcomes(st) })
}

// recoveryClient picks the client that drives recovery-abort markers,
// by index: the first non-crashed client after the coordinator, client
// coord, in cluster order (falling back to the coordinator's successor if
// all are down — the markers then land after its restart).
func (tc *TxnCluster) recoveryClient(coord int) int {
	n := len(tc.clients)
	for off := 1; off <= n; off++ {
		if c := (coord + off) % n; !tc.nodes[c].Crashed() {
			return c
		}
	}
	return (coord + 1) % n
}

// outcomeReplayed resolves a transaction on shard rec at its outcome
// marker's replay point: a committed transaction's writes apply to the
// shard's key states here (its definite point in the shard's total
// order), locks release, and deferred single-key operations drain.
// Markers can replay before their shard's prepare (a recovery abort
// does not wait for prepares) — then there is nothing to unlock.
func (tc *TxnCluster) outcomeReplayed(rec *shardRecorder, id string, commit bool) {
	tc.tstats.OutcomesLanded++
	st, ok := tc.txns[id]
	if !ok {
		rec.fail("outcome marker for unknown transaction %q", id)
		return
	}
	if !st.decided || commit != st.committed {
		rec.fail("outcome marker (commit=%v) disagrees with transaction %q decision", commit, id)
		return
	}
	p := st.part(rec.sh.id)
	if p == nil {
		rec.fail("outcome marker of transaction %q on shard %d, not a participant", id, rec.sh.id)
		return
	}
	if p.resolved {
		return // duplicate marker from a redrive round: already resolved
	}
	p.resolved = true
	if !p.locked {
		return // never prepared here, or voted no: no locks, no effects
	}
	if st.committed {
		for _, i := range p.ops {
			op := st.spec.Ops[i]
			if op.Kind == TxnWrite || op.Kind == TxnCAS {
				rec.state[op.Key] = adt.State(op.Value)
			}
		}
	}
	for _, i := range p.ops {
		rec.unlock(st.spec.Ops[i].Key, id)
	}
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
		for _, p := range st.parts {
			if !p.resolved {
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
// in a merged component history, derived from its command (every
// operation is fed as a whole pair, so two equal commands sharing a
// process still alternate on it). One process per operation, not per
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

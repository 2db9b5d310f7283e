// Package paxos implements single-decree Paxos as the Backup speculation
// phase of §2.1: clients act as proposers and learners, servers as
// acceptors. It decides as long as a majority of acceptors is alive, and
// treats switch calls from the previous phase as regular proposals of the
// switch value (the paper's Backup).
//
// The implementation is the classic two-phase protocol:
//
//	Phase 1: a proposer picks a unique ballot b and sends prepare(b);
//	         an acceptor with promised < b replies promise(b, accepted).
//	Phase 2: on a majority of promises the proposer sends accept(b, v)
//	         where v is the highest-ballot accepted value among the
//	         promises, or its own proposal; an acceptor with promised ≤ b
//	         records (b, v) and replies accepted(b, v).
//
// On a majority of accepted(b, ·) the proposer decides and broadcasts the
// decision to all clients (learners). Stalled proposers retry with higher
// ballots after a deterministic per-client backoff, so the protocol is
// live under partial synchrony and message loss in the simulator.
package paxos

import (
	"repro/internal/mpcons"
	"repro/internal/msgnet"
	"repro/internal/trace"
)

// Message kinds (msgnet.Msg.Kind) and the body fields each uses.
const (
	// kindPrepare: A = ballot.
	kindPrepare uint8 = 1 + iota
	// kindPromise: A = ballot, B = accepted ballot (0 when nothing
	// accepted), V = accepted value.
	kindPromise
	// kindNack: A = the acceptor's promised ballot.
	kindNack
	// kindAccept and kindAccepted: A = ballot, V = value.
	kindAccept
	kindAccepted
	// kindDecided: V = the decision.
	kindDecided
)

// timerRetry (msgnet.Timer.Kind) starts a higher ballot when a proposer
// stalls.
const timerRetry uint8 = 1

// promise is what a proposer keeps of a promise: the acceptor's accepted
// pair.
type promise struct {
	acceptedB int64
	acceptedV trace.Value
}

// Protocol is the Paxos phase protocol.
type Protocol struct{}

var _ mpcons.PhaseProtocol = Protocol{}

// retryBase is the base backoff before a stalled proposer starts a
// higher ballot; the effective backoff grows with the round and is
// skewed by the client index to break symmetry.
const retryBase msgnet.Time = 8

// Name implements PhaseProtocol.
func (Protocol) Name() string { return "paxos" }

// NewClient implements PhaseProtocol.
func (Protocol) NewClient(env mpcons.ClientEnv) mpcons.ClientPhase {
	return &proposer{env: env}
}

// NewServer implements PhaseProtocol.
func (Protocol) NewServer(env mpcons.ServerEnv) mpcons.ServerPhase {
	return &acceptor{env: env}
}

// proposer drives ballots for one client and learns decisions.
type proposer struct {
	env mpcons.ClientEnv

	active   bool
	value    trace.Value // value to propose this ballot
	round    int64
	ballot   int64
	promises map[msgnet.ProcID]promise
	accepts  map[msgnet.ProcID]bool
	phase2   bool

	decided  bool
	decision trace.Value
}

func (pr *proposer) majority() int { return len(pr.env.Servers())/2 + 1 }

// ballotFor builds a globally unique, round-increasing ballot.
func (pr *proposer) ballotFor(round int64) int64 {
	return round*int64(len(pr.env.Clients())) + int64(pr.env.ClientIndex()) + 1
}

func (pr *proposer) Propose(v trace.Value) { pr.start(v) }

// SwitchIn proposes the switch value (Backup treats switch calls as
// regular proposals of the switch value, §2.1).
func (pr *proposer) SwitchIn(pending, sv trace.Value) { pr.start(sv) }

func (pr *proposer) start(v trace.Value) {
	if pr.decided {
		// The decision is already known (learned before switching in).
		pr.env.Decide(pr.decision)
		return
	}
	pr.active = true
	pr.value = v
	pr.newBallot()
}

func (pr *proposer) newBallot() {
	pr.round++
	pr.ballot = pr.ballotFor(pr.round)
	pr.promises = map[msgnet.ProcID]promise{}
	pr.accepts = map[msgnet.ProcID]bool{}
	pr.phase2 = false
	pr.env.Broadcast(msgnet.Msg{Kind: kindPrepare, A: pr.ballot})
	// Deterministic, symmetry-breaking backoff.
	backoff := retryBase * msgnet.Time(1+pr.round)
	backoff += msgnet.Time(pr.env.ClientIndex() * 2)
	pr.env.SetTimer(timerRetry, backoff)
}

func (pr *proposer) OnTimer(kind uint8) {
	if kind != timerRetry || !pr.active || pr.decided {
		return
	}
	pr.newBallot()
}

func (pr *proposer) OnMessage(from msgnet.ProcID, m msgnet.Msg) {
	switch m.Kind {
	case kindDecided:
		pr.learn(m.V)
	case kindPromise:
		if !pr.active || pr.decided || m.A != pr.ballot || pr.phase2 {
			return
		}
		pr.promises[from] = promise{acceptedB: m.B, acceptedV: m.V}
		if len(pr.promises) < pr.majority() {
			return
		}
		// Choose the highest-ballot accepted value, if any.
		v := pr.value
		var bestB int64
		for _, p := range pr.promises {
			if p.acceptedB > bestB {
				bestB = p.acceptedB
				v = p.acceptedV
			}
		}
		pr.phase2 = true
		pr.env.Broadcast(msgnet.Msg{Kind: kindAccept, A: pr.ballot, V: v})
	case kindAccepted:
		if !pr.active || pr.decided || m.A != pr.ballot {
			return
		}
		pr.accepts[from] = true
		if len(pr.accepts) >= pr.majority() {
			// Decided: inform all learners (including self).
			for _, c := range pr.env.Clients() {
				if c == pr.env.Self() {
					continue
				}
				pr.env.Send(c, msgnet.Msg{Kind: kindDecided, V: m.V})
			}
			pr.learn(m.V)
		}
	case kindNack:
		// A higher ballot exists; the retry timer will start a new round.
	}
}

// learn records the decision and resolves the pending operation, if any.
func (pr *proposer) learn(v trace.Value) {
	if !pr.decided {
		pr.decided = true
		pr.decision = v
	}
	if pr.active {
		pr.active = false
		pr.env.CancelTimer(timerRetry)
		pr.env.Decide(pr.decision)
	}
}

// Round implements mpcons.BallotTracker.
func (pr *proposer) Round() int64 { return pr.round }

// SetRoundFloor implements mpcons.BallotTracker: the proposer's next
// ballot will use a round above r. Hosts call it when replacing an
// abandoned proposer so the successor never reuses a ballot the
// predecessor may have driven to phase 2 (same-ballot proposals of
// different values break agreement).
func (pr *proposer) SetRoundFloor(r int64) {
	if r > pr.round {
		pr.round = r
	}
}

var _ mpcons.BallotTracker = (*proposer)(nil)

// acceptor is the server-side Paxos role.
type acceptor struct {
	env       mpcons.ServerEnv
	promised  int64
	acceptedB int64
	acceptedV trace.Value
}

var _ mpcons.Durable = (*acceptor)(nil)

// Snapshot implements mpcons.Durable. An acceptor's durable state is its
// promise (A) and accepted pair (B, V). Classic Paxos requires these to
// survive crashes — an acceptor that forgets a promise can promise a
// lower ballot, and one that forgets an accepted value can let a stale
// proposer overturn a chosen value.
func (a *acceptor) Snapshot() mpcons.State {
	return mpcons.State{A: a.promised, B: a.acceptedB, V: a.acceptedV}
}

// Restore implements mpcons.Durable.
func (a *acceptor) Restore(st mpcons.State) {
	a.promised, a.acceptedB, a.acceptedV = st.A, st.B, st.V
}

func (a *acceptor) OnMessage(from msgnet.ProcID, m msgnet.Msg) {
	switch m.Kind {
	case kindPrepare:
		if b := m.A; b > a.promised {
			a.promised = b
			a.env.Send(from, msgnet.Msg{Kind: kindPromise, A: b, B: a.acceptedB, V: a.acceptedV})
		} else {
			a.env.Send(from, msgnet.Msg{Kind: kindNack, A: a.promised})
		}
	case kindAccept:
		if b := m.A; b >= a.promised {
			a.promised = b
			a.acceptedB = b
			a.acceptedV = m.V
			a.env.Send(from, msgnet.Msg{Kind: kindAccepted, A: b, V: m.V})
		} else {
			a.env.Send(from, msgnet.Msg{Kind: kindNack, A: a.promised})
		}
	}
}

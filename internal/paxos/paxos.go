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

type prepareMsg struct{ B int64 }

type promiseMsg struct {
	B         int64
	AcceptedB int64 // 0 when nothing accepted
	AcceptedV trace.Value
}

type nackMsg struct{ Promised int64 }

type acceptMsg struct {
	B int64
	V trace.Value
}

type acceptedMsg struct {
	B int64
	V trace.Value
}

type decidedMsg struct{ V trace.Value }

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
	promises map[msgnet.ProcID]promiseMsg
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
	pr.promises = map[msgnet.ProcID]promiseMsg{}
	pr.accepts = map[msgnet.ProcID]bool{}
	pr.phase2 = false
	pr.env.Broadcast(prepareMsg{B: pr.ballot})
	// Deterministic, symmetry-breaking backoff.
	backoff := retryBase * msgnet.Time(1+pr.round)
	backoff += msgnet.Time(pr.env.ClientIndex() * 2)
	pr.env.SetTimer("retry", backoff)
}

func (pr *proposer) OnTimer(name string) {
	if name != "retry" || !pr.active || pr.decided {
		return
	}
	pr.newBallot()
}

func (pr *proposer) OnMessage(from msgnet.ProcID, payload any) {
	switch m := payload.(type) {
	case decidedMsg:
		pr.learn(m.V)
	case promiseMsg:
		if !pr.active || pr.decided || m.B != pr.ballot || pr.phase2 {
			return
		}
		pr.promises[from] = m
		if len(pr.promises) < pr.majority() {
			return
		}
		// Choose the highest-ballot accepted value, if any.
		v := pr.value
		var bestB int64
		for _, p := range pr.promises {
			if p.AcceptedB > bestB {
				bestB = p.AcceptedB
				v = p.AcceptedV
			}
		}
		pr.phase2 = true
		pr.env.Broadcast(acceptMsg{B: pr.ballot, V: v})
	case acceptedMsg:
		if !pr.active || pr.decided || m.B != pr.ballot {
			return
		}
		pr.accepts[from] = true
		if len(pr.accepts) >= pr.majority() {
			// Decided: inform all learners (including self).
			for _, c := range pr.env.Clients() {
				if c == pr.env.Self() {
					continue
				}
				pr.env.Send(c, decidedMsg{V: m.V})
			}
			pr.learn(m.V)
		}
	case nackMsg:
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
		pr.env.CancelTimer("retry")
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

// acceptorState is the durable snapshot of an acceptor: its promise and
// accepted pair. Classic Paxos requires these to survive crashes — an
// acceptor that forgets a promise can promise a lower ballot, and one
// that forgets an accepted value can let a stale proposer overturn a
// chosen value.
type acceptorState struct {
	Promised  int64
	AcceptedB int64
	AcceptedV trace.Value
}

// Snapshot implements mpcons.Durable.
func (a *acceptor) Snapshot() any {
	return acceptorState{Promised: a.promised, AcceptedB: a.acceptedB, AcceptedV: a.acceptedV}
}

// Restore implements mpcons.Durable.
func (a *acceptor) Restore(snap any) {
	st := snap.(acceptorState)
	a.promised, a.acceptedB, a.acceptedV = st.Promised, st.AcceptedB, st.AcceptedV
}

func (a *acceptor) OnMessage(from msgnet.ProcID, payload any) {
	switch m := payload.(type) {
	case prepareMsg:
		if m.B > a.promised {
			a.promised = m.B
			a.env.Send(from, promiseMsg{B: m.B, AcceptedB: a.acceptedB, AcceptedV: a.acceptedV})
		} else {
			a.env.Send(from, nackMsg{Promised: a.promised})
		}
	case acceptMsg:
		if m.B >= a.promised {
			a.promised = m.B
			a.acceptedB = m.B
			a.acceptedV = m.V
			a.env.Send(from, acceptedMsg{B: m.B, V: m.V})
		} else {
			a.env.Send(from, nackMsg{Promised: a.promised})
		}
	}
}

func (a *acceptor) OnTimer(string) {}

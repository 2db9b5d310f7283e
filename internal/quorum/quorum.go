// Package quorum implements the Quorum speculation phase of §2.1: a
// consensus fast path that decides in two message delays when there is
// neither contention nor faults, and otherwise switches to the next phase
// with the value the paper mandates.
//
// Protocol (verbatim from the paper):
//
//   - On propose(v), a client broadcasts its proposal to all servers,
//     stores v and starts a local timer.
//   - A server that receives a proposal replies with accept(v') where v'
//     is the first proposal it ever received (it always re-sends the same
//     accept).
//   - A client that receives two different accept values switches with its
//     own stored proposal.
//   - A client that receives the same accept(v) from all servers decides v.
//   - When the timer expires the client switches with the value of some
//     accept it has received, waiting for at least one if necessary.
//
// Optional retransmission (off in the paper, configurable here) re-sends
// the proposal so the phase stays live under message loss.
package quorum

import (
	"repro/internal/mpcons"
	"repro/internal/msgnet"
	"repro/internal/trace"
)

// Message kinds (msgnet.Msg.Kind); each carries its value in V.
const (
	// kindPropose is a client proposal broadcast to servers.
	kindPropose uint8 = 1 + iota
	// kindAccept is a server's accept reply.
	kindAccept
)

// Timer kinds (msgnet.Timer.Kind) of the client.
const (
	// timerTimeout ends the wait for a unanimous quorum.
	timerTimeout uint8 = 1 + iota
	// timerRetransmit re-broadcasts the proposal (Retransmit only).
	timerRetransmit
)

// Protocol is the Quorum phase protocol.
type Protocol struct {
	// Timeout is the client timer duration; it should exceed one round
	// trip (2 message delays under unit delay). Default 6.
	Timeout msgnet.Time
	// Retransmit, when positive, re-broadcasts the proposal at this
	// period while the operation is unresolved, masking message loss.
	Retransmit msgnet.Time
}

var _ mpcons.PhaseProtocol = Protocol{}

// Name implements PhaseProtocol.
func (Protocol) Name() string { return "quorum" }

func (p Protocol) timeout() msgnet.Time {
	if p.Timeout <= 0 {
		return 6
	}
	return p.Timeout
}

// NewClient implements PhaseProtocol.
func (p Protocol) NewClient(env mpcons.ClientEnv) mpcons.ClientPhase {
	return &client{proto: p, env: env}
}

// NewServer implements PhaseProtocol.
func (p Protocol) NewServer(env mpcons.ServerEnv) mpcons.ServerPhase {
	return &server{env: env}
}

type client struct {
	proto    Protocol
	env      mpcons.ClientEnv
	proposal trace.Value
	active   bool
	// accepts[i] is the first accept received from env.Servers()[i];
	// received counts the servers heard from. A slice, not a map: it is
	// cleared (reallocated only if too short) per proposal, and both
	// readers below are independent of the order in which accepts arrived.
	accepts  []accept
	received int
	// expired marks that the timer fired with no accept received; the
	// client switches upon the next accept (the paper's "waits for at
	// least one message accept(v')").
	expired bool
}

type accept struct {
	v   trace.Value
	got bool
}

func (c *client) Propose(v trace.Value) {
	c.proposal = v
	c.active = true
	c.expired = false
	if n := len(c.env.Servers()); cap(c.accepts) >= n {
		c.accepts = c.accepts[:n]
		clear(c.accepts)
	} else {
		c.accepts = make([]accept, n)
	}
	c.received = 0
	c.env.Broadcast(msgnet.Msg{Kind: kindPropose, V: v})
	c.env.SetTimer(timerTimeout, c.proto.timeout())
	if c.proto.Retransmit > 0 {
		c.env.SetTimer(timerRetransmit, c.proto.Retransmit)
	}
}

// SwitchIn treats a transferred operation as a proposal of the switch
// value, allowing Quorum to serve as an intermediate retry phase (the
// paper's phases treat switch calls "as regular proposals").
func (c *client) SwitchIn(pending, sv trace.Value) { c.Propose(sv) }

func (c *client) OnMessage(from msgnet.ProcID, m msgnet.Msg) {
	if m.Kind != kindAccept || !c.active {
		return
	}
	v := m.V
	for i, s := range c.env.Servers() {
		if s == from {
			if !c.accepts[i].got {
				c.accepts[i] = accept{v: v, got: true}
				c.received++
			}
			break
		}
	}
	if c.expired {
		// Timer already fired: switch with the value of this accept.
		c.finish()
		c.env.SwitchTo(v)
		return
	}
	// Two different accept values: contention — switch with own proposal.
	for _, a := range c.accepts {
		if a.got && a.v != v {
			c.finish()
			c.env.SwitchTo(c.proposal)
			return
		}
	}
	// Same accept from all servers: decide.
	if c.received == len(c.accepts) {
		c.finish()
		c.env.Decide(v)
	}
}

func (c *client) OnTimer(kind uint8) {
	if !c.active {
		return
	}
	switch kind {
	case timerRetransmit:
		c.env.Broadcast(msgnet.Msg{Kind: kindPropose, V: c.proposal})
		c.env.SetTimer(timerRetransmit, c.proto.Retransmit)
	case timerTimeout:
		if c.received == 0 {
			// Wait for at least one accept, then switch with its value.
			c.expired = true
			return
		}
		// Switch with the value of some received accept; pick the one
		// from the smallest server ID for determinism.
		var best msgnet.ProcID
		var bestV trace.Value
		for i, s := range c.env.Servers() {
			if c.accepts[i].got && (best == "" || s < best) {
				best, bestV = s, c.accepts[i].v
			}
		}
		c.finish()
		c.env.SwitchTo(bestV)
	}
}

// finish ends the phase for this proposal; the caller resolves it (decide
// or switch) right after.
func (c *client) finish() {
	c.active = false
	c.env.CancelTimer(timerTimeout)
	c.env.CancelTimer(timerRetransmit)
}

type server struct {
	env      mpcons.ServerEnv
	accepted trace.Value
	has      bool
}

var _ mpcons.Durable = (*server)(nil)

// Snapshot implements mpcons.Durable. A Quorum server's durable state is
// the first-received proposal it is committed to accepting forever: V,
// with A = 1 once there is one. It must survive crash–recovery — a
// recovered server re-accepting a different first value could complete a
// second unanimous quorum and split the fast path's decision.
func (s *server) Snapshot() mpcons.State {
	if !s.has {
		return mpcons.State{}
	}
	return mpcons.State{A: 1, V: s.accepted}
}

// Restore implements mpcons.Durable.
func (s *server) Restore(st mpcons.State) {
	s.accepted, s.has = st.V, st.A == 1
}

func (s *server) OnMessage(from msgnet.ProcID, m msgnet.Msg) {
	if m.Kind != kindPropose {
		return
	}
	if !s.has {
		s.has = true
		s.accepted = m.V
	}
	s.env.Send(from, msgnet.Msg{Kind: kindAccept, V: s.accepted})
}

package paxos

import (
	"fmt"
	"testing"

	"repro/internal/mpcons"
	"repro/internal/msgnet"
	"repro/internal/trace"
)

// Typed views of the wire messages (msgnet.Msg, decoded by kind), so the
// tests read as the protocol does.
type (
	prepareMsg struct{ B int64 }
	promiseMsg struct {
		B, AcceptedB int64
		AcceptedV    trace.Value
	}
	nackMsg   struct{ Promised int64 }
	acceptMsg struct {
		B int64
		V trace.Value
	}
	acceptedMsg struct {
		B int64
		V trace.Value
	}
	decidedMsg struct{ V trace.Value }
)

func encode(m any) msgnet.Msg {
	switch m := m.(type) {
	case prepareMsg:
		return msgnet.Msg{Kind: kindPrepare, A: m.B}
	case promiseMsg:
		return msgnet.Msg{Kind: kindPromise, A: m.B, B: m.AcceptedB, V: m.AcceptedV}
	case nackMsg:
		return msgnet.Msg{Kind: kindNack, A: m.Promised}
	case acceptMsg:
		return msgnet.Msg{Kind: kindAccept, A: m.B, V: m.V}
	case acceptedMsg:
		return msgnet.Msg{Kind: kindAccepted, A: m.B, V: m.V}
	case decidedMsg:
		return msgnet.Msg{Kind: kindDecided, V: m.V}
	}
	panic(fmt.Sprintf("no wire form for %T", m))
}

func decode(m msgnet.Msg) any {
	switch m.Kind {
	case kindPrepare:
		return prepareMsg{B: m.A}
	case kindPromise:
		return promiseMsg{B: m.A, AcceptedB: m.B, AcceptedV: m.V}
	case kindNack:
		return nackMsg{Promised: m.A}
	case kindAccept:
		return acceptMsg{B: m.A, V: m.V}
	case kindAccepted:
		return acceptedMsg{B: m.A, V: m.V}
	case kindDecided:
		return decidedMsg{V: m.V}
	}
	panic(fmt.Sprintf("unknown kind %d", m.Kind))
}

// sentMsg is a message the env was asked to send, decoded.
type sentMsg struct {
	to msgnet.ProcID
	m  any
}

type fakeEnv struct {
	self    msgnet.ProcID
	index   int
	clients []msgnet.ProcID
	servers []msgnet.ProcID
	sent    []sentMsg
	timers  map[uint8]msgnet.Time
	decided *trace.Value
}

func newFakeEnv(index, nClients, nServers int) *fakeEnv {
	e := &fakeEnv{index: index, timers: map[uint8]msgnet.Time{}}
	for i := 0; i < nClients; i++ {
		e.clients = append(e.clients, msgnet.ProcID(rune('c'+i)))
	}
	for i := 0; i < nServers; i++ {
		e.servers = append(e.servers, msgnet.ProcID(rune('A'+i)))
	}
	e.self = e.clients[index]
	return e
}

func (e *fakeEnv) Self() msgnet.ProcID      { return e.self }
func (e *fakeEnv) ClientIndex() int         { return e.index }
func (e *fakeEnv) Clients() []msgnet.ProcID { return e.clients }
func (e *fakeEnv) Servers() []msgnet.ProcID { return e.servers }
func (e *fakeEnv) Now() msgnet.Time         { return 0 }
func (e *fakeEnv) Send(to msgnet.ProcID, m msgnet.Msg) {
	e.sent = append(e.sent, sentMsg{to, decode(m)})
}
func (e *fakeEnv) Broadcast(m msgnet.Msg) {
	for _, s := range e.servers {
		e.Send(s, m)
	}
}
func (e *fakeEnv) SetTimer(kind uint8, d msgnet.Time) { e.timers[kind] = d }
func (e *fakeEnv) CancelTimer(kind uint8)             { delete(e.timers, kind) }
func (e *fakeEnv) Decide(v trace.Value)               { e.decided = &v }
func (e *fakeEnv) SwitchTo(sv trace.Value)            { panic("paxos never switches out") }

var _ mpcons.ClientEnv = (*fakeEnv)(nil)

func (e *fakeEnv) lastBallot(t *testing.T) int64 {
	t.Helper()
	for i := len(e.sent) - 1; i >= 0; i-- {
		switch m := e.sent[i].m.(type) {
		case prepareMsg:
			return m.B
		}
	}
	t.Fatal("no prepare sent")
	return 0
}

func TestProposerHappyPath(t *testing.T) {
	env := newFakeEnv(0, 2, 3)
	p := Protocol{}.NewClient(env)
	p.Propose("v")
	b := env.lastBallot(t)
	// Majority of empty promises -> accept(b, own value).
	p.OnMessage("A", encode(promiseMsg{B: b}))
	p.OnMessage("B", encode(promiseMsg{B: b}))
	var acc *acceptMsg
	for _, s := range env.sent {
		if m, ok := s.m.(acceptMsg); ok {
			acc = &m
			break
		}
	}
	if acc == nil || acc.V != "v" || acc.B != b {
		t.Fatalf("phase 2 message wrong: %+v", acc)
	}
	// Majority of accepted -> decide + notify the other client.
	p.OnMessage("A", encode(acceptedMsg{B: b, V: "v"}))
	p.OnMessage("B", encode(acceptedMsg{B: b, V: "v"}))
	if env.decided == nil || *env.decided != "v" {
		t.Fatalf("decided = %v", env.decided)
	}
	informed := false
	for _, s := range env.sent {
		if _, ok := s.m.(decidedMsg); ok && s.to == "d" {
			informed = true
		}
	}
	if !informed {
		t.Fatal("other learner not informed")
	}
}

// A proposer must adopt the highest-ballot accepted value from promises.
func TestProposerAdoptsAcceptedValue(t *testing.T) {
	env := newFakeEnv(0, 2, 3)
	p := Protocol{}.NewClient(env)
	p.Propose("mine")
	b := env.lastBallot(t)
	p.OnMessage("A", encode(promiseMsg{B: b, AcceptedB: 1, AcceptedV: "old"}))
	p.OnMessage("B", encode(promiseMsg{B: b, AcceptedB: 2, AcceptedV: "newer"}))
	var acc *acceptMsg
	for _, s := range env.sent {
		if m, ok := s.m.(acceptMsg); ok {
			acc = &m
		}
	}
	if acc == nil || acc.V != "newer" {
		t.Fatalf("must adopt highest accepted value; got %+v", acc)
	}
}

func TestProposerRetriesWithHigherBallot(t *testing.T) {
	env := newFakeEnv(1, 2, 3)
	p := Protocol{}.NewClient(env)
	p.Propose("v")
	b1 := env.lastBallot(t)
	p.OnTimer(timerRetry)
	b2 := env.lastBallot(t)
	if b2 <= b1 {
		t.Fatalf("retry ballot %d not higher than %d", b2, b1)
	}
	// Ballots of different clients never collide: b mod nClients encodes
	// the client index (+1 offset).
	if b1%2 == b2%2 && b1 == b2 {
		t.Fatal("ballot collision")
	}
}

func TestLearnerDecidesBeforeSwitchIn(t *testing.T) {
	env := newFakeEnv(0, 2, 3)
	p := Protocol{}.NewClient(env)
	// Decision learned while idle (not yet switched in).
	p.OnMessage("c", encode(decidedMsg{V: "w"}))
	if env.decided != nil {
		t.Fatal("idle learner resolved a non-pending operation")
	}
	p.SwitchIn("mine", "sv")
	if env.decided == nil || *env.decided != "w" {
		t.Fatalf("late switch-in must decide the learned value; got %v", env.decided)
	}
}

func TestSwitchInProposesSwitchValue(t *testing.T) {
	env := newFakeEnv(0, 2, 3)
	p := Protocol{}.NewClient(env)
	p.SwitchIn("pendingValue", "sv")
	b := env.lastBallot(t)
	p.OnMessage("A", encode(promiseMsg{B: b}))
	p.OnMessage("B", encode(promiseMsg{B: b}))
	var acc *acceptMsg
	for _, s := range env.sent {
		if m, ok := s.m.(acceptMsg); ok {
			acc = &m
		}
	}
	if acc == nil || acc.V != "sv" {
		t.Fatalf("Backup must propose the switch value; got %+v", acc)
	}
}

type serverSent struct {
	to msgnet.ProcID
	m  any
}

type fakeServerEnv struct{ sent []serverSent }

func (e *fakeServerEnv) Self() msgnet.ProcID      { return "A" }
func (e *fakeServerEnv) Clients() []msgnet.ProcID { return nil }
func (e *fakeServerEnv) Servers() []msgnet.ProcID { return nil }
func (e *fakeServerEnv) Now() msgnet.Time         { return 0 }
func (e *fakeServerEnv) Send(to msgnet.ProcID, m msgnet.Msg) {
	e.sent = append(e.sent, serverSent{to, decode(m)})
}

var _ mpcons.ServerEnv = (*fakeServerEnv)(nil)

func TestAcceptorPromisesAndNacks(t *testing.T) {
	env := &fakeServerEnv{}
	a := Protocol{}.NewServer(env)
	a.OnMessage("c1", encode(prepareMsg{B: 5}))
	if _, ok := env.sent[0].m.(promiseMsg); !ok {
		t.Fatalf("expected promise, got %v", env.sent[0].m)
	}
	a.OnMessage("c2", encode(prepareMsg{B: 3})) // lower ballot
	if m, ok := env.sent[1].m.(nackMsg); !ok || m.Promised != 5 {
		t.Fatalf("expected nack(5), got %v", env.sent[1].m)
	}
}

func TestAcceptorAcceptsAndReportsHistory(t *testing.T) {
	env := &fakeServerEnv{}
	a := Protocol{}.NewServer(env)
	a.OnMessage("c1", encode(prepareMsg{B: 5}))
	a.OnMessage("c1", encode(acceptMsg{B: 5, V: "v"}))
	if m, ok := env.sent[1].m.(acceptedMsg); !ok || m.V != "v" || m.B != 5 {
		t.Fatalf("expected accepted(5,v), got %v", env.sent[1].m)
	}
	// A later prepare must report the accepted value.
	a.OnMessage("c2", encode(prepareMsg{B: 9}))
	if m, ok := env.sent[2].m.(promiseMsg); !ok || m.AcceptedB != 5 || m.AcceptedV != "v" {
		t.Fatalf("promise must carry accepted history, got %v", env.sent[2].m)
	}
	// An accept below the promise is refused.
	a.OnMessage("c1", encode(acceptMsg{B: 7, V: "w"}))
	if _, ok := env.sent[3].m.(nackMsg); !ok {
		t.Fatalf("stale accept must be nacked, got %v", env.sent[3].m)
	}
}

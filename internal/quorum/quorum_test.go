package quorum

import (
	"testing"

	"repro/internal/mpcons"
	"repro/internal/msgnet"
	"repro/internal/trace"
)

// proposeMsg and acceptMsg build the wire messages; value reads one.
func proposeMsg(v trace.Value) msgnet.Msg { return msgnet.Msg{Kind: kindPropose, V: v} }
func acceptMsg(v trace.Value) msgnet.Msg  { return msgnet.Msg{Kind: kindAccept, V: v} }

// fakeClientEnv records a client component's actions.
type fakeClientEnv struct {
	servers []msgnet.ProcID
	sent    []struct {
		to msgnet.ProcID
		m  msgnet.Msg
	}
	timers   map[uint8]msgnet.Time
	decided  *trace.Value
	switched *trace.Value
}

func newFakeClientEnv(nServers int) *fakeClientEnv {
	e := &fakeClientEnv{timers: map[uint8]msgnet.Time{}}
	for i := 0; i < nServers; i++ {
		e.servers = append(e.servers, msgnet.ProcID(rune('A'+i)))
	}
	return e
}

func (e *fakeClientEnv) Self() msgnet.ProcID      { return "client" }
func (e *fakeClientEnv) ClientIndex() int         { return 0 }
func (e *fakeClientEnv) Clients() []msgnet.ProcID { return []msgnet.ProcID{"client"} }
func (e *fakeClientEnv) Servers() []msgnet.ProcID { return e.servers }
func (e *fakeClientEnv) Now() msgnet.Time         { return 0 }
func (e *fakeClientEnv) Send(to msgnet.ProcID, m msgnet.Msg) {
	e.sent = append(e.sent, struct {
		to msgnet.ProcID
		m  msgnet.Msg
	}{to, m})
}
func (e *fakeClientEnv) Broadcast(m msgnet.Msg) {
	for _, s := range e.servers {
		e.Send(s, m)
	}
}
func (e *fakeClientEnv) SetTimer(kind uint8, d msgnet.Time) { e.timers[kind] = d }
func (e *fakeClientEnv) CancelTimer(kind uint8)             { delete(e.timers, kind) }
func (e *fakeClientEnv) Decide(v trace.Value)               { e.decided = &v }
func (e *fakeClientEnv) SwitchTo(sv trace.Value)            { e.switched = &sv }

var _ mpcons.ClientEnv = (*fakeClientEnv)(nil)

func TestClientDecidesOnUnanimousAccepts(t *testing.T) {
	env := newFakeClientEnv(3)
	c := Protocol{}.NewClient(env)
	c.Propose("v")
	if len(env.sent) != 3 {
		t.Fatalf("proposal not broadcast: %v", env.sent)
	}
	c.OnMessage("A", acceptMsg("v"))
	c.OnMessage("B", acceptMsg("v"))
	if env.decided != nil {
		t.Fatal("decided before all servers answered")
	}
	c.OnMessage("C", acceptMsg("v"))
	if env.decided == nil || *env.decided != "v" {
		t.Fatalf("decided = %v", env.decided)
	}
	if env.switched != nil {
		t.Fatal("switched as well as decided")
	}
}

func TestClientSwitchesOnConflict(t *testing.T) {
	env := newFakeClientEnv(3)
	c := Protocol{}.NewClient(env)
	c.Propose("mine")
	c.OnMessage("A", acceptMsg("x"))
	c.OnMessage("B", acceptMsg("y"))
	if env.switched == nil || *env.switched != "mine" {
		t.Fatalf("conflict must switch with own proposal; got %v", env.switched)
	}
}

func TestClientTimeoutSwitchesWithWitnessedValue(t *testing.T) {
	env := newFakeClientEnv(3)
	c := Protocol{}.NewClient(env)
	c.Propose("mine")
	c.OnMessage("B", acceptMsg("w"))
	c.OnTimer(timerTimeout)
	if env.switched == nil || *env.switched != "w" {
		t.Fatalf("timeout must switch with a witnessed accept value; got %v", env.switched)
	}
}

func TestClientTimeoutWaitsForFirstAccept(t *testing.T) {
	env := newFakeClientEnv(3)
	c := Protocol{}.NewClient(env)
	c.Propose("mine")
	c.OnTimer(timerTimeout)
	if env.switched != nil {
		t.Fatal("switched with no accept witnessed")
	}
	c.OnMessage("C", acceptMsg("z"))
	if env.switched == nil || *env.switched != "z" {
		t.Fatalf("late accept must trigger the deferred switch; got %v", env.switched)
	}
}

func TestClientIgnoresStrayMessagesWhenInactive(t *testing.T) {
	env := newFakeClientEnv(3)
	c := Protocol{}.NewClient(env)
	c.OnMessage("A", acceptMsg("v")) // before any proposal
	if env.decided != nil || env.switched != nil {
		t.Fatal("inactive client acted on a stray message")
	}
}

// fakeServerEnv records replies.
type fakeServerEnv struct {
	replies []struct {
		to msgnet.ProcID
		m  msgnet.Msg
	}
}

func (e *fakeServerEnv) Self() msgnet.ProcID      { return "S" }
func (e *fakeServerEnv) Clients() []msgnet.ProcID { return nil }
func (e *fakeServerEnv) Servers() []msgnet.ProcID { return nil }
func (e *fakeServerEnv) Now() msgnet.Time         { return 0 }
func (e *fakeServerEnv) Send(to msgnet.ProcID, m msgnet.Msg) {
	e.replies = append(e.replies, struct {
		to msgnet.ProcID
		m  msgnet.Msg
	}{to, m})
}

var _ mpcons.ServerEnv = (*fakeServerEnv)(nil)

// Figure-level behavior: a server always replies with the FIRST proposal
// it received, to every proposer.
func TestServerAcceptsFirstProposalForever(t *testing.T) {
	env := &fakeServerEnv{}
	s := Protocol{}.NewServer(env)
	s.OnMessage("c1", proposeMsg("first"))
	s.OnMessage("c2", proposeMsg("second"))
	s.OnMessage("c1", proposeMsg("third"))
	if len(env.replies) != 3 {
		t.Fatalf("replies: %v", env.replies)
	}
	for i, r := range env.replies {
		if r.m != acceptMsg("first") {
			t.Fatalf("reply %d = %v, want accept(first)", i, r.m)
		}
	}
	if env.replies[0].to != "c1" || env.replies[1].to != "c2" {
		t.Fatalf("replies addressed wrongly: %v", env.replies)
	}
}

// The server's reply and its snapshot follow its state: the snapshot
// taken before the first proposal is the zero State and differs from the
// one after, a restored server answers with the restored value, and a
// duplicate accept from one server is counted once however often it
// arrives.
func TestServerReplyAndSnapshotFollowState(t *testing.T) {
	env := &fakeServerEnv{}
	s := Protocol{}.NewServer(env).(*server)
	if got := s.Snapshot(); got != (mpcons.State{}) {
		t.Fatalf("fresh snapshot %+v", got)
	}
	s.OnMessage("c1", proposeMsg("first"))
	if got := s.Snapshot(); got != (mpcons.State{A: 1, V: "first"}) {
		t.Fatalf("snapshot after the first proposal %+v", got)
	}
	s.OnMessage("c2", proposeMsg("second"))
	if got := s.Snapshot(); got.V != "first" {
		t.Fatalf("snapshot moved with a later proposal: %+v", got)
	}

	s.Restore(mpcons.State{A: 1, V: "restored"})
	s.OnMessage("c3", proposeMsg("third"))
	if got := env.replies[len(env.replies)-1].m; got != acceptMsg("restored") {
		t.Fatalf("reply after Restore = %+v, want the restored value", got)
	}
	if got := s.Snapshot(); got.V != "restored" {
		t.Fatalf("snapshot after Restore %+v", got)
	}
	s.Restore(mpcons.State{})
	s.OnMessage("c4", proposeMsg("fourth"))
	if got := env.replies[len(env.replies)-1].m; got != acceptMsg("fourth") {
		t.Fatalf("a server restored to the zero State answered %+v, want accept(fourth)", got)
	}

	cenv := newFakeClientEnv(3)
	c := Protocol{}.NewClient(cenv)
	c.Propose("v")
	for i := 0; i < 5; i++ {
		c.OnMessage("A", acceptMsg("v"))
	}
	c.OnMessage("nobody", acceptMsg("v")) // not a server: not a vote
	c.OnMessage("B", acceptMsg("v"))
	if cenv.decided != nil {
		t.Fatal("decided on two servers' accepts out of three")
	}
	c.OnMessage("C", acceptMsg("v"))
	if cenv.decided == nil || *cenv.decided != "v" {
		t.Fatalf("unanimous accepts did not decide: %v", cenv.decided)
	}
}

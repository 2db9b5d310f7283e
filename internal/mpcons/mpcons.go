// Package mpcons composes message-passing consensus speculation phases
// inside the msgnet simulator — the protocol-level counterpart of
// core.Composer for the paper's first case study (§2.1).
//
// An object consists of client processes and server processes. Each
// speculation phase contributes a client-side component to every client
// and a server-side component to every server; messages and timers carry
// their phase index in their header so phases never see each other's
// traffic or timers, and the only information that crosses a phase
// boundary is the switch value a client carries when it aborts — the
// paper's black-box composition rule, enforced by construction.
//
// The object records the interface-level trace (inv/res/swi actions,
// numbered as in §5.1) for post-hoc checking by packages lin and slin.
package mpcons

import (
	"fmt"
	"strconv"

	"repro/internal/adt"
	"repro/internal/core"
	"repro/internal/msgnet"
	"repro/internal/trace"
)

// ClientEnv is the interface a client-side phase component uses to act.
// All methods must be called from within simulator callbacks.
type ClientEnv interface {
	// Self returns this client's process ID.
	Self() msgnet.ProcID
	// ClientIndex returns this client's index among all clients (for
	// building unique ballot numbers and similar).
	ClientIndex() int
	// Clients returns all client process IDs.
	Clients() []msgnet.ProcID
	// Servers returns all server process IDs.
	Servers() []msgnet.ProcID
	// Send sends a phase message to one process; the env fills in the
	// routing header.
	Send(to msgnet.ProcID, m msgnet.Msg)
	// Broadcast sends a phase message to all servers.
	Broadcast(m msgnet.Msg)
	// SetTimer (re)arms the phase's timer of the given kind, numbered
	// from 1 up and below 64 (see HostKinds); the env fills in the
	// routing header.
	SetTimer(kind uint8, d msgnet.Time)
	// CancelTimer cancels the phase's timer of the given kind.
	CancelTimer(kind uint8)
	// Now returns current virtual time.
	Now() msgnet.Time
	// Decide resolves the client's pending operation with a decision.
	// Ignored if the client has no pending operation in this phase.
	Decide(v trace.Value)
	// SwitchTo aborts the client's pending operation to the next phase
	// with switch value sv. Ignored if not pending in this phase.
	SwitchTo(sv trace.Value)
}

// ClientPhase is the client-side component of one phase on one client.
type ClientPhase interface {
	// Propose starts the phase for a fresh proposal (first phase only).
	Propose(v trace.Value)
	// SwitchIn enters the phase with a pending proposal value and the
	// switch value from the previous phase.
	SwitchIn(pending trace.Value, sv trace.Value)
	// OnMessage delivers a phase message.
	OnMessage(from msgnet.ProcID, m msgnet.Msg)
	// OnTimer fires the phase's timer of the given kind.
	OnTimer(kind uint8)
}

// HostKinds splits the kinds of msgnet.Msg and msgnet.Timer alike
// between the phases and their host. A phase protocol numbers its message
// kinds and its timer kinds from 1 up to below HostKinds — its timer
// kinds below 64, so that a host can keep a phase's armed timers in one
// bit mask; a host that routes phase messages and timers beside its own
// (smr's notices, skips and watermarks; its progress timer) numbers its
// own from HostKinds up, so the one field tells the two apart.
const HostKinds uint8 = 128

// ServerEnv is the interface a server-side phase component uses to act.
// A server phase only answers messages: it arms no timer.
type ServerEnv interface {
	Self() msgnet.ProcID
	Clients() []msgnet.ProcID
	Servers() []msgnet.ProcID
	Send(to msgnet.ProcID, m msgnet.Msg)
	Now() msgnet.Time
}

// ServerPhase is the server-side component of one phase on one server.
type ServerPhase interface {
	OnMessage(from msgnet.ProcID, m msgnet.Msg)
}

// PhaseProtocol builds the per-process components of one phase.
type PhaseProtocol interface {
	Name() string
	NewClient(env ClientEnv) ClientPhase
	NewServer(env ServerEnv) ServerPhase
}

// Durable is optionally implemented by server phase components whose
// protocol state must survive crash–recovery. Snapshot captures the
// component's complete state as a State value; Restore resets a component
// — freshly built or used before — to one. A host that models durable
// storage snapshots after every delivered message — within the same
// atomic simulator event, i.e. write-ahead with respect to anything the
// component sent — and restores on restart, so a recovered component is
// indistinguishable from one that merely paused.
type Durable interface {
	Snapshot() State
	Restore(st State)
}

// State is a server phase component's durable state, in the shape of a
// phase message's body: two integers and one value, whose meaning the
// protocol defines. It is small enough to keep by value for every slot.
type State struct {
	A, B int64
	V    trace.Value
}

// BallotTracker is optionally implemented by client phase components
// that burn through a totally ordered ballot/round space (Paxos
// proposers). A host that abandons an in-flight component and starts a
// fresh one for the same consensus instance — a client-side retry —
// MUST carry the old component's Round into the new component's
// SetRoundFloor: two proposers of the same client reusing a ballot can
// split it across two values and break agreement.
type BallotTracker interface {
	// Round returns the highest round this component has used.
	Round() int64
	// SetRoundFloor makes the component start above r.
	SetRoundFloor(r int64)
}

// OpResult describes one completed operation.
type OpResult struct {
	Client   msgnet.ProcID
	Value    trace.Value // proposed consensus value
	Decision trace.Value // decided consensus value
	Start    msgnet.Time
	End      msgnet.Time
	// Phase is the 1-based phase the decision came from.
	Phase int
	// Switches is the number of phase switches the operation performed.
	Switches int
}

// Latency returns the operation's latency in message delays (virtual time
// units under unit delay).
func (r OpResult) Latency() msgnet.Time { return r.End - r.Start }

// Object is a composed speculative consensus object running on a network.
type Object struct {
	net     *msgnet.Network
	rec     *core.Recorder
	protos  []PhaseProtocol
	clients []msgnet.ProcID
	servers []msgnet.ProcID
	drivers map[msgnet.ProcID]*clientDriver

	results []OpResult
}

// Build wires clients, servers and phases into net. Client and server
// process IDs must be distinct.
func Build(net *msgnet.Network, clients, servers []msgnet.ProcID, protos ...PhaseProtocol) (*Object, error) {
	if len(protos) == 0 {
		return nil, fmt.Errorf("mpcons: need at least one phase protocol")
	}
	if len(clients) == 0 || len(servers) == 0 {
		return nil, fmt.Errorf("mpcons: need clients and servers")
	}
	o := &Object{
		net:     net,
		rec:     core.NewRecorder(),
		protos:  protos,
		clients: clients,
		servers: servers,
		drivers: map[msgnet.ProcID]*clientDriver{},
	}
	for i, c := range clients {
		d := &clientDriver{obj: o, id: c, index: i}
		o.drivers[c] = d
		net.AddNode(c, d)
	}
	for _, s := range servers {
		d := &serverDriver{obj: o, id: s}
		net.AddNode(s, d)
	}
	return o, nil
}

// ProposeAt schedules client c to propose consensus value v at time t.
// The client must not have an operation in flight at that time (clients
// are sequential); violations surface as recorder well-formedness
// failures in checks.
func (o *Object) ProposeAt(c msgnet.ProcID, v trace.Value, t msgnet.Time) {
	o.net.At(t, func() { o.drivers[c].startOp(v) })
}

// Run advances the simulation.
func (o *Object) Run(maxTime msgnet.Time) msgnet.Time { return o.net.Run(maxTime) }

// Trace returns the interface-level trace recorded so far.
func (o *Object) Trace() trace.Trace { return o.rec.Trace() }

// Results returns completed operations in completion order.
func (o *Object) Results() []OpResult { return append([]OpResult{}, o.results...) }

// clientDriver hosts a client's phase components and mediates switching.
type clientDriver struct {
	obj   *Object
	id    msgnet.ProcID
	index int
	node  *msgnet.Node
	comps []ClientPhase

	phase   int // index of the phase the client currently executes in
	pending bool
	opSeq   int
	current OpResult
	input   trace.Value // tagged ADT input of the pending operation
}

func (d *clientDriver) Init(n *msgnet.Node) {
	d.node = n
	d.comps = make([]ClientPhase, len(d.obj.protos))
	for k, p := range d.obj.protos {
		d.comps[k] = p.NewClient(&clientEnv{driver: d, phase: k})
	}
}

func (d *clientDriver) startOp(v trace.Value) {
	if d.pending {
		// A sequential client cannot have two operations in flight; drop
		// the proposal and record nothing (workloads schedule correctly).
		return
	}
	d.opSeq++
	d.pending = true
	d.input = adt.Tag(adt.ProposeInput(v), string(d.id)+"#"+strconv.Itoa(d.opSeq))
	d.current = OpResult{Client: d.id, Value: v, Start: d.node.Now()}
	d.obj.rec.Record(trace.Invoke(trace.ClientID(d.id), d.phase+1, d.input))
	d.comps[d.phase].Propose(v)
}

func (d *clientDriver) decide(phase int, v trace.Value) {
	if !d.pending || phase != d.phase {
		return // stale callback from an older phase
	}
	d.pending = false
	d.current.Decision = v
	d.current.End = d.node.Now()
	d.current.Phase = phase + 1
	d.obj.rec.Record(trace.Response(trace.ClientID(d.id), d.phase+1, d.input, adt.DecideOutput(v)))
	d.obj.results = append(d.obj.results, d.current)
}

func (d *clientDriver) switchTo(phase int, sv trace.Value) {
	if !d.pending || phase != d.phase {
		return
	}
	if d.phase+1 >= len(d.comps) {
		panic(fmt.Sprintf("mpcons: last phase %s aborted on %s",
			d.obj.protos[d.phase].Name(), d.id))
	}
	d.current.Switches++
	d.obj.rec.Record(trace.Switch(trace.ClientID(d.id), d.phase+2, d.input, sv))
	d.phase++
	d.comps[d.phase].SwitchIn(d.current.Value, sv)
}

func (d *clientDriver) OnMsg(n *msgnet.Node, from msgnet.ProcID, m msgnet.Msg) {
	if int(m.Phase) < len(d.comps) {
		d.comps[m.Phase].OnMessage(from, m)
	}
}

func (d *clientDriver) OnTick(n *msgnet.Node, t msgnet.Timer) {
	if int(t.Phase) < len(d.comps) {
		d.comps[t.Phase].OnTimer(t.Kind)
	}
}

// clientEnv adapts a driver to one phase's view.
type clientEnv struct {
	driver *clientDriver
	phase  int
}

func (e *clientEnv) Self() msgnet.ProcID      { return e.driver.id }
func (e *clientEnv) ClientIndex() int         { return e.driver.index }
func (e *clientEnv) Clients() []msgnet.ProcID { return e.driver.obj.clients }
func (e *clientEnv) Servers() []msgnet.ProcID { return e.driver.obj.servers }
func (e *clientEnv) Now() msgnet.Time         { return e.driver.node.Now() }
func (e *clientEnv) Decide(v trace.Value)     { e.driver.decide(e.phase, v) }
func (e *clientEnv) SwitchTo(sv trace.Value)  { e.driver.switchTo(e.phase, sv) }
func (e *clientEnv) Send(to msgnet.ProcID, m msgnet.Msg) {
	m.Phase = uint8(e.phase)
	e.driver.node.Post(to, m)
}
func (e *clientEnv) Broadcast(m msgnet.Msg) {
	m.Phase = uint8(e.phase)
	for _, s := range e.driver.obj.servers {
		e.driver.node.Post(s, m)
	}
}
func (e *clientEnv) SetTimer(kind uint8, d msgnet.Time) {
	e.driver.node.Arm(msgnet.Timer{Phase: uint8(e.phase), Kind: kind}, d)
}
func (e *clientEnv) CancelTimer(kind uint8) {
	e.driver.node.Disarm(msgnet.Timer{Phase: uint8(e.phase), Kind: kind})
}

// serverDriver hosts a server's phase components.
type serverDriver struct {
	obj   *Object
	id    msgnet.ProcID
	node  *msgnet.Node
	comps []ServerPhase
}

func (d *serverDriver) Init(n *msgnet.Node) {
	d.node = n
	d.comps = make([]ServerPhase, len(d.obj.protos))
	for k, p := range d.obj.protos {
		d.comps[k] = p.NewServer(&serverEnv{driver: d, phase: k})
	}
}

func (d *serverDriver) OnMsg(n *msgnet.Node, from msgnet.ProcID, m msgnet.Msg) {
	if int(m.Phase) < len(d.comps) {
		d.comps[m.Phase].OnMessage(from, m)
	}
}

// OnTick implements msgnet.Receiver: no server phase arms a timer.
func (d *serverDriver) OnTick(*msgnet.Node, msgnet.Timer) {}

type serverEnv struct {
	driver *serverDriver
	phase  int
}

func (e *serverEnv) Self() msgnet.ProcID      { return e.driver.id }
func (e *serverEnv) Clients() []msgnet.ProcID { return e.driver.obj.clients }
func (e *serverEnv) Servers() []msgnet.ProcID { return e.driver.obj.servers }
func (e *serverEnv) Now() msgnet.Time         { return e.driver.node.Now() }
func (e *serverEnv) Send(to msgnet.ProcID, m msgnet.Msg) {
	m.Phase = uint8(e.phase)
	e.driver.node.Post(to, m)
}

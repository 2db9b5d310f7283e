// Package smcons composes the shared-memory speculation phases RCons
// (Figure 2) and CASCons (Figure 3) into one consensus object over
// simulated memory, exposing it as a step system that the model checker
// (package check) can interleave exhaustively.
//
// Each client process runs one propose(v) through the composed object:
// an invocation event, the RCons steps, then — if RCons aborts — a switch
// event and the CASCons step, and finally a response event. Every
// shared-memory access is one step, so the checker explores exactly the
// interleavings a real machine could produce at register granularity.
package smcons

import (
	"strconv"
	"strings"

	"repro/internal/adt"
	"repro/internal/cascons"
	"repro/internal/rcons"
	"repro/internal/shmem"
	"repro/internal/trace"
)

// Stage of a client process.
const (
	stageArrive  = iota // emit the invocation
	stageRCons          // executing Figure 2 steps
	stageSwitch         // emit the switch action
	stageCAS            // executing the Figure 3 CAS
	stageRespond        // emit the response
	stageDone
)

// ClientProc drives one client's single propose(v) through the composed
// object.
type ClientProc struct {
	id    trace.ClientID
	value trace.Value
	input trace.Value

	// foldEndpoints merges interface events (invocation, switch,
	// response) into the adjacent memory step, shrinking the
	// interleaving space for exhaustive runs. Every folded schedule is a
	// genuine schedule of the unfolded system (one particular placement
	// of the interface events), so folded exploration covers a subset of
	// the unfolded schedules; the unfolded mode remains the ground truth
	// and is used at smaller configuration sizes.
	foldEndpoints bool

	stage    int
	rc       *rcons.Machine
	cc       *cascons.Machine
	sv       trace.Value
	phase    int // 1-based phase of the eventual response
	decision trace.Value
}

// System is the composed object plus its clients and the recorded trace.
type System struct {
	Mem   *shmem.Mem
	Procs []*ClientProc
	tr    trace.Trace

	regs rcons.Regs
	reg  cascons.Reg
}

// Config parameterizes New.
type Config struct {
	// Values are the proposals; one client is created per entry.
	Values []trace.Value
	// FoldEndpoints folds invocation/response events into the adjacent
	// memory steps (see ClientProc).
	FoldEndpoints bool
}

// New builds a fresh composed object with one client per proposal value.
func New(cfg Config) *System {
	s := &System{
		Mem:  shmem.NewMem(),
		regs: rcons.DefaultRegs("rc"),
		reg:  cascons.DefaultReg("cc"),
	}
	for i, v := range cfg.Values {
		id := trace.ClientID("m" + strconv.Itoa(i+1))
		s.Procs = append(s.Procs, &ClientProc{
			id:            id,
			value:         v,
			input:         adt.Tag(adt.ProposeInput(v), string(id)),
			foldEndpoints: cfg.FoldEndpoints,
			stage:         stageArrive,
		})
	}
	return s
}

// Enabled returns the indices of processes that can still step.
func (s *System) Enabled() []int {
	var e []int
	for i, p := range s.Procs {
		if p.stage != stageDone {
			e = append(e, i)
		}
	}
	return e
}

// Step advances process i by one atomic step.
func (s *System) Step(i int) {
	p := s.Procs[i]
	switch p.stage {
	case stageArrive:
		s.tr = append(s.tr, trace.Invoke(p.id, 1, p.input))
		p.rc = rcons.NewMachine(s.regs, p.id, p.value)
		p.stage = stageRCons
		if p.foldEndpoints {
			s.Step(i) // perform the first memory access in the same step
		}
	case stageRCons:
		p.rc.Step(s.Mem)
		if !p.rc.Done() {
			return
		}
		r := p.rc.Result()
		if r.Switched {
			p.sv = r.Value
			p.stage = stageSwitch
			if p.foldEndpoints {
				s.Step(i)
			}
			return
		}
		p.decision, p.phase = r.Value, 1
		p.stage = stageRespond
		if p.foldEndpoints {
			s.Step(i)
		}
	case stageSwitch:
		s.tr = append(s.tr, trace.Switch(p.id, 2, p.input, p.sv))
		p.cc = cascons.NewSwitchMachine(s.reg, p.sv)
		p.stage = stageCAS
	case stageCAS:
		p.cc.Step(s.Mem)
		p.decision, p.phase = p.cc.Result(), 2
		p.stage = stageRespond
		if p.foldEndpoints {
			s.Step(i)
		}
	case stageRespond:
		s.tr = append(s.tr, trace.Response(p.id, p.phase, p.input, adt.DecideOutput(p.decision)))
		p.stage = stageDone
	default:
		panic("smcons: step on completed process")
	}
}

// Clone returns an independent copy for state-space branching.
func (s *System) Clone() *System {
	c := &System{
		Mem:  s.Mem.Clone(),
		tr:   s.tr.Clone(),
		regs: s.regs,
		reg:  s.reg,
	}
	for _, p := range s.Procs {
		np := *p
		if p.rc != nil {
			np.rc = p.rc.Clone()
		}
		if p.cc != nil {
			np.cc = p.cc.Clone()
		}
		c.Procs = append(c.Procs, &np)
	}
	return c
}

// Trace returns the trace recorded so far.
func (s *System) Trace() trace.Trace { return s.tr }

// Key canonically encodes memory plus all process-local states (the trace
// is excluded: Key identifies states for invariant-checking dedup).
func (s *System) Key() string {
	var b strings.Builder
	b.WriteString(s.Mem.Key())
	b.WriteByte('|')
	for _, p := range s.Procs {
		b.WriteString(strconv.Itoa(p.stage))
		b.WriteByte(':')
		if p.rc != nil {
			b.WriteString(p.rc.Key())
		}
		b.WriteByte(':')
		if p.cc != nil {
			b.WriteString(p.cc.Key())
		}
		b.WriteByte(':')
		b.WriteString(p.decision)
		b.WriteByte(':')
		b.WriteString(p.sv)
		b.WriteByte('|')
	}
	return b.String()
}

// ID returns the client's identifier.
func (p *ClientProc) ID() trace.ClientID { return p.id }

// Value returns the client's proposal.
func (p *ClientProc) Value() trace.Value { return p.value }

// SwitchedOut reports whether the client's switch action has been emitted.
func (p *ClientProc) SwitchedOut() bool {
	return p.stage == stageCAS || (p.stage >= stageRespond && p.phase == 2)
}

// SwitchValue returns the switch value; meaningful once SwitchedOut.
func (p *ClientProc) SwitchValue() trace.Value { return p.sv }

// Decision returns the decided value and the 1-based deciding phase;
// ok is false until the operation resolved.
func (p *ClientProc) Decision() (v trace.Value, phase int, ok bool) {
	if p.stage < stageRespond {
		return "", 0, false
	}
	return p.decision, p.phase, true
}

// SplitterWon reports whether the client won the RCons splitter.
func (p *ClientProc) SplitterWon() bool { return p.rc != nil && p.rc.SplitterWon() }

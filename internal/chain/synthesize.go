package chain

import (
	"context"

	"repro/internal/fullinfo"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// Synthesize compiles an r-round consensus algorithm for the scheme
// directly out of the full-information analysis, when one exists: each
// connected component of the indistinguishability graph gets a decision
// value (forced by validity on components containing unanimous inputs),
// and each process decides at round r by looking up its own view's
// component. The synthesized algorithm is round-optimal by construction
// (Corollary III.14) and — unlike A_w — applies to schemes outside Γ^ω,
// including the double-omission schemes the paper leaves open.
//
// ok is false when the scheme is not r-round solvable.
func Synthesize(s *scheme.Scheme, r int) (white, black sim.Process, ok bool) {
	prog, ok := compile(s, r)
	if !ok {
		return nil, nil, false
	}
	return &synthesized{prog: prog}, &synthesized{prog: prog}, true
}

// program is the compiled decision structure shared by both processes.
type program struct {
	rounds int
	// step maps (view id, received view id or -1) to the next view id;
	// it is the interner's transition table restricted to reachable
	// configurations.
	step map[viewKey]int
	// decide maps a process's final view id to its decision, separately
	// per process identity: a white view can be structurally identical to
	// a black view (hence share an interner id) while lying in a
	// different component.
	decide [2]map[int]sim.Value
	// initView maps an input value to its initial view id.
	initView [2]int
}

// compile runs the engine once with graph retention and
// extracts the program: the canonical interner's transition table
// becomes step, and each final (process, view) vertex decides by its
// component's unanimity flags — 1 when the component contains an
// all-1-input configuration, else 0 (every such component then has a 0
// among its members' inputs: a component cannot mix (1,1) with others
// without carrying the unanimous-1 flag, and any other config contains
// a 0).
func compile(s *scheme.Scheme, r int) (*program, bool) {
	res, g, err := fullinfo.RunChecked(context.Background(), newChainStepper(s), r, fullinfo.Options{BuildGraph: true})
	if err != nil {
		panic(err) // unreachable: nothing cancels the run and the chain stepper never panics
	}
	if !res.Solvable {
		return nil, false
	}
	prog := &program{
		rounds:   r,
		step:     map[viewKey]int{},
		decide:   [2]map[int]sim.Value{{}, {}},
		initView: [2]int{fullinfo.InitView(0), fullinfo.InitView(1)},
	}
	g.EachView(func(prev, recv, id int) {
		prog.step[viewKey{prev, recv}] = id
	})
	g.EachVertex(func(proc, view int, has0, has1 bool) {
		var d sim.Value
		if has1 {
			d = 1
		}
		prog.decide[proc][view] = d
	})
	return prog, true
}

// SynthesisStats reports the compiled program's size for an r-round
// synthesis: the number of view-transition entries and of final decision
// entries. Used by the message/state-size experiments to contrast the
// uniform A_w (whose per-round state is one O(r·log 3)-bit integer) with
// the table-driven synthesized algorithm (whose tables grow with the
// configuration space).
func SynthesisStats(s *scheme.Scheme, r int) (transitions, decisions int, ok bool) {
	prog, ok := compile(s, r)
	if !ok {
		return 0, 0, false
	}
	return len(prog.step), len(prog.decide[sim.White]) + len(prog.decide[sim.Black]), true
}

// synthesized is the runtime process: it tracks its view id by exchanging
// view ids, then decides via the compiled table. Off-scheme executions
// (view transitions never enumerated) leave it undecided.
type synthesized struct {
	prog     *program
	id       sim.ID
	view     int
	broken   bool
	decision sim.Value
}

// Init implements sim.Process.
func (p *synthesized) Init(id sim.ID, input sim.Value) {
	p.id = id
	p.view = p.prog.initView[input&1]
	p.broken = false
	p.decision = sim.None
}

// Send implements sim.Process.
func (p *synthesized) Send(r int) (sim.Message, bool) {
	if p.decision != sim.None || p.broken {
		return nil, p.decision == sim.None && !p.broken
	}
	return p.view, true
}

// Receive implements sim.Process.
func (p *synthesized) Receive(r int, msg sim.Message) {
	if p.broken || p.decision != sim.None {
		return
	}
	recv := -1
	if msg != nil {
		recv = msg.(int)
	}
	next, ok := p.prog.step[viewKey{p.view, recv}]
	if !ok {
		p.broken = true
		return
	}
	p.view = next
	if r >= p.prog.rounds {
		d, ok := p.prog.decide[p.id][p.view]
		if !ok {
			p.broken = true
			return
		}
		p.decision = d
	}
}

// Decision implements sim.Process.
func (p *synthesized) Decision() (sim.Value, bool) {
	if p.decision == sim.None {
		return sim.None, false
	}
	return p.decision, true
}

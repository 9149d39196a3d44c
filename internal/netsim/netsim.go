// Package netsim is the synchronous message-passing simulator for
// communication networks of arbitrary topology (Section V of Fevat &
// Godard): n processes on the vertices of an undirected graph exchange
// one message per incident directed edge per round, and an adversary
// drops a set of directed messages each round.
//
// The omission schemes of Section V are expressed as adversaries: O_f^ω
// ("at most f losses per round") as a budgeted adversary, and the
// three-letter cut scheme Γ_C of the Theorem V.1 impossibility proof as an
// adversary driven by a two-process scenario through the bijection ρ.
package netsim

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/omission"
	"repro/internal/sim"
)

// Value is a consensus value (shared with the two-process kernel).
type Value = sim.Value

// Message is an algorithm-defined payload.
type Message = sim.Message

// Node is a deterministic synchronous process at a graph vertex.
type Node interface {
	// Init resets the node with its vertex id, the topology, and its
	// input.
	Init(id int, g *graph.Graph, input Value)
	// Send returns the messages for round r keyed by neighbor id; absent
	// keys (or a nil map) mean nothing is sent on that edge.
	Send(r int) map[int]Message
	// Receive delivers the round-r messages keyed by sender id (only the
	// delivered ones appear).
	Receive(r int, msgs map[int]Message)
	// Decision returns the decided value once decided.
	Decision() (Value, bool)
}

// Adversary selects the directed messages to drop each round.
type Adversary interface {
	// Drops returns the set of directed edges whose round-r messages are
	// lost.
	Drops(r int, g *graph.Graph) map[graph.DirEdge]bool
}

// NoDrops is the failure-free adversary.
type NoDrops struct{}

// Drops implements Adversary.
func (NoDrops) Drops(int, *graph.Graph) map[graph.DirEdge]bool { return nil }

// RandomF drops up to F uniformly random directed messages per round.
type RandomF struct {
	F   int
	Rng *rand.Rand
}

// Drops implements Adversary.
func (a RandomF) Drops(_ int, g *graph.Graph) map[graph.DirEdge]bool {
	var all []graph.DirEdge
	for _, e := range g.Edges() {
		all = append(all, graph.DirEdge{From: e.U, To: e.V}, graph.DirEdge{From: e.V, To: e.U})
	}
	a.Rng.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	k := a.F
	if k > len(all) {
		k = len(all)
	}
	out := map[graph.DirEdge]bool{}
	for _, e := range all[:k] {
		out[e] = true
	}
	return out
}

// CutScenario drives the Γ_C scheme of the Theorem V.1 proof from a
// two-process scenario through ρ⁻¹: letter '.' drops nothing, 'w' drops
// every cut-edge message from SideA ("white's side") to SideB, and 'b'
// drops every message from SideB to SideA.
type CutScenario struct {
	Cut graph.Cut
	Src omission.Source
}

// Drops implements Adversary.
func (a CutScenario) Drops(r int, _ *graph.Graph) map[graph.DirEdge]bool {
	letter := a.Src.At(r - 1)
	out := map[graph.DirEdge]bool{}
	for _, e := range a.Cut.CutEdges {
		aEnd, bEnd := a.Cut.AEnd(e), a.Cut.BEnd(e)
		if letter.LostWhite() {
			out[graph.DirEdge{From: aEnd, To: bEnd}] = true
		}
		if letter.LostBlack() {
			out[graph.DirEdge{From: bEnd, To: aEnd}] = true
		}
	}
	return out
}

// TargetedCut drops a fixed number of the cut's A→B messages per round —
// the meanest adversary that still respects a budget below the cut size.
type TargetedCut struct {
	Cut graph.Cut
	F   int
}

// Drops implements Adversary.
func (a TargetedCut) Drops(_ int, _ *graph.Graph) map[graph.DirEdge]bool {
	out := map[graph.DirEdge]bool{}
	for i, e := range a.Cut.CutEdges {
		if i >= a.F {
			break
		}
		out[graph.DirEdge{From: a.Cut.AEnd(e), To: a.Cut.BEnd(e)}] = true
	}
	return out
}

// FuncAdversary adapts a function.
type FuncAdversary func(r int, g *graph.Graph) map[graph.DirEdge]bool

// Drops implements Adversary.
func (f FuncAdversary) Drops(r int, g *graph.Graph) map[graph.DirEdge]bool { return f(r, g) }

// Trace records a network execution.
type Trace struct {
	Inputs        []Value
	Rounds        int
	Decisions     []Value
	DecisionRound []int
	TimedOut      bool
	// MaxDropsPerRound is the largest number of messages lost in any
	// single round (for checking the O_f budget).
	MaxDropsPerRound int
	TotalDrops       int
}

// String summarizes the trace.
func (t Trace) String() string {
	return fmt.Sprintf("inputs=%v rounds=%d decisions=%v rounds=%v timedOut=%v maxDrops=%d",
		t.Inputs, t.Rounds, t.Decisions, t.DecisionRound, t.TimedOut, t.MaxDropsPerRound)
}

// Run executes the nodes on the graph under the adversary for at most
// maxRounds rounds. A node panic propagates.
func Run(g *graph.Graph, nodes []Node, inputs []Value, adv Adversary, maxRounds int) Trace {
	return runner{}.run(context.Background(), g, nodes, inputs, adv, maxRounds).Trace
}

// RunHardened is Run with fail-closed guarantees: a panicking node is
// crash-stopped with a diagnostic instead of killing the process, and the
// context bounds the run's wall-clock time (checked at every round
// boundary).
func RunHardened(ctx context.Context, g *graph.Graph, nodes []Node, inputs []Value, adv Adversary, maxRounds int) HardenedTrace {
	return runner{harden: true}.run(ctx, g, nodes, inputs, adv, maxRounds)
}

// RunGoroutines executes the same semantics as Run with one goroutine per
// node. Node panics crash-stop the offending node (diagnostics are
// available through RunGoroutinesHardened); the process never dies.
func RunGoroutines(g *graph.Graph, nodes []Node, inputs []Value, adv Adversary, maxRounds int) Trace {
	return RunGoroutinesHardened(context.Background(), g, nodes, inputs, adv, maxRounds).Trace
}

// RunGoroutinesHardened is RunHardened with one server goroutine per
// node; the context also bounds every wait on a node.
func RunGoroutinesHardened(ctx context.Context, g *graph.Graph, nodes []Node, inputs []Value, adv Adversary, maxRounds int) HardenedTrace {
	return runner{servers: true, harden: true}.run(ctx, g, nodes, inputs, adv, maxRounds)
}

// A runner picks where node calls run (inline, or on one server goroutine
// per node) and whether a panic crash-stops the node.
type runner struct{ servers, harden bool }

// execution is one run in progress, with one call and reply per node.
type execution struct {
	nodes   []Node
	harden  bool
	crashed []bool
	ht      HardenedTrace
	calls   []call
	reps    []reply
}

// run is the package's one round loop. Init and the round-0 decisions run
// on the caller's goroutine. It stops once every live node has decided.
func (rn runner) run(ctx context.Context, g *graph.Graph, nodes []Node, inputs []Value, adv Adversary, maxRounds int) HardenedTrace {
	n := g.N()
	if len(nodes) != n || len(inputs) != n {
		panic("netsim: nodes/inputs length mismatch")
	}
	x := &execution{nodes: nodes, harden: rn.harden, crashed: make([]bool, n), calls: make([]call, n), reps: make([]reply, n)}
	x.ht.Trace = Trace{Inputs: append([]Value(nil), inputs...), Decisions: make([]Value, n), DecisionRound: make([]int, n)}
	for i, node := range nodes {
		x.ht.Decisions[i], x.ht.DecisionRound[i] = sim.None, -1
		x.fail(i, 0, initialize(node, i, g, inputs[i], x.harden))
	}
	x.ask(0)
	if x.exchange(nil); x.decided() {
		return x.ht
	}
	var s *servers
	if rn.servers {
		s = serve(ctx, x)
		defer s.close()
	}
	for r := 1; r <= maxRounds; r++ {
		if err := x.round(ctx, s, g, adv, r); err != nil {
			x.ht.Interrupted, x.ht.Err, x.ht.TimedOut = true, err, true
			return x.ht
		}
		if x.decided() {
			return x.ht
		}
	}
	x.ht.TimedOut = true
	return x.ht
}

// round runs round r, unless ctx has expired.
func (x *execution) round(ctx context.Context, s *servers, g *graph.Graph, adv Adversary, r int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	x.ht.Rounds = r
	drops := adv.Drops(r, g)
	x.ht.MaxDropsPerRound = max(x.ht.MaxDropsPerRound, len(drops))
	x.ht.TotalDrops += len(drops)
	for i := range x.calls {
		x.calls[i] = call{round: r, send: true}
	}
	if err := x.exchange(s); err != nil {
		return err
	}
	// Fresh maps: a node may keep the one it receives. A server also
	// decides; inline, every node receives before any is asked.
	for i := range x.calls {
		x.calls[i] = call{round: r, deliver: true, msgs: map[int]Message{}, decide: s != nil && x.ht.DecisionRound[i] < 0}
	}
	for from, rep := range x.reps {
		for to, m := range rep.msgs {
			if m != nil && g.HasEdge(from, to) && !drops[graph.DirEdge{From: from, To: to}] {
				x.calls[to].msgs[from] = m
			}
		}
	}
	if err := x.exchange(s); err != nil || s != nil {
		return err
	}
	x.ask(r)
	return x.exchange(nil)
}

// exchange makes every live node's call — in turn on the caller's
// goroutine, or at once on the servers — and takes in the replies in node
// order. A crashed node gets no call.
func (x *execution) exchange(s *servers) error {
	for i, c := range x.calls {
		if s == nil || x.crashed[i] {
			continue
		}
		select {
		case s.calls[i] <- c:
		case <-s.ctx.Done():
			return s.ctx.Err()
		}
	}
	for i, node := range x.nodes {
		if x.reps[i] = (reply{}); x.crashed[i] {
			continue
		}
		if s == nil {
			x.reps[i] = x.calls[i].do(node, x.harden)
		} else {
			select {
			case x.reps[i] = <-s.replies[i]:
			case <-s.ctx.Done():
				return s.ctx.Err()
			}
		}
		c, rep := x.calls[i], x.reps[i]
		x.fail(i, c.round, rep.fault)
		if c.decide && rep.decided {
			x.ht.Decisions[i], x.ht.DecisionRound[i] = rep.value, c.round
		}
	}
	return nil
}

// ask sets the calls asking the undecided nodes for their decision.
func (x *execution) ask(r int) {
	for i := range x.calls {
		x.calls[i] = call{round: r, decide: x.ht.DecisionRound[i] < 0}
	}
}

// decided reports whether every node has decided or crashed.
func (x *execution) decided() bool {
	for i, r := range x.ht.DecisionRound {
		if r < 0 && !x.crashed[i] {
			return false
		}
	}
	return true
}

// Report is the consensus-property check outcome for a network trace.
type Report struct {
	Terminated bool
	Agreement  bool
	Validity   bool
	Violations []string
}

// OK reports whether all three properties hold.
func (r Report) OK() bool { return r.Terminated && r.Agreement && r.Validity }

// Check verifies uniform consensus on the trace.
func Check(t Trace) Report {
	rep := Report{Terminated: true, Agreement: true, Validity: true}
	unanimous := true
	for _, v := range t.Inputs {
		if v != t.Inputs[0] {
			unanimous = false
		}
	}
	isInput := func(v Value) bool {
		for _, in := range t.Inputs {
			if in == v {
				return true
			}
		}
		return false
	}
	var first Value = sim.None
	for i, d := range t.Decisions {
		if d == sim.None {
			rep.Terminated = false
			rep.Violations = append(rep.Violations, fmt.Sprintf("termination: node %d undecided", i))
			continue
		}
		if first == sim.None {
			first = d
		} else if d != first {
			rep.Agreement = false
			rep.Violations = append(rep.Violations, fmt.Sprintf("agreement: node %d decided %d, node others %d", i, d, first))
		}
		if !isInput(d) {
			rep.Validity = false
			rep.Violations = append(rep.Violations, fmt.Sprintf("validity: node %d decided non-input %d", i, d))
		}
		if unanimous && d != t.Inputs[0] {
			rep.Validity = false
			rep.Violations = append(rep.Violations, fmt.Sprintf("validity: unanimity %d broken by node %d (%d)", t.Inputs[0], i, d))
		}
	}
	return rep
}

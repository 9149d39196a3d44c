package netsim

import (
	"fmt"
	"runtime/debug"
	"strings"

	"repro/internal/graph"
)

// The hardened runners fail closed: a panicking node is crash-stopped (it
// stops sending and receiving, and only its own trace entries suffer), and
// the run obeys a context.

// NodeCrash records a node panic absorbed by a hardened runner and
// converted into a crash-stop.
type NodeCrash struct {
	// Node is the vertex id of the node that panicked.
	Node int
	// Round is the round (1-based) in which the panic occurred.
	Round int
	// Op is the node method that panicked ("Send", "Receive", "Decision"
	// or "Init").
	Op string
	// Diag is the panic value followed by the goroutine stack.
	Diag string
}

// String implements fmt.Stringer.
func (c NodeCrash) String() string {
	line, _, _ := strings.Cut(c.Diag, "\n")
	return fmt.Sprintf("node %d panicked in %s at round %d: %s", c.Node, c.Op, c.Round, line)
}

// HardenedTrace couples a network trace with the failures the hardened
// runners absorbed on its behalf.
type HardenedTrace struct {
	Trace
	// Crashes lists node panics converted to crash-stops (at most one per
	// node).
	Crashes []NodeCrash
	// Interrupted is set when the context expired before the run
	// finished; Err then carries the context error.
	Interrupted bool
	Err         error
}

// Crashed reports whether the given node crash-stopped, with its
// diagnostic.
func (t *HardenedTrace) Crashed(node int) (NodeCrash, bool) {
	for _, c := range t.Crashes {
		if c.Node == node {
			return c, true
		}
	}
	return NodeCrash{}, false
}

// call is one call on a node: its Send, or its Receive (when deliver is
// set) followed by its Decision (when decide is set).
type call struct {
	round                 int
	send, deliver, decide bool
	msgs                  map[int]Message
}

// reply answers a call: the messages sent or the decision, and the panic
// the call caught.
type reply struct {
	msgs    map[int]Message
	value   Value
	decided bool
	fault   *fault
}

// fault is a node panic caught by a guarded call.
type fault struct {
	op    string
	val   any
	stack []byte
}

// do makes call c on node n, recovering a panic if guard is set.
func (c call) do(n Node, guard bool) (rep reply) {
	op := "Send"
	if guard {
		defer catch(&op, &rep.fault)
	}
	if c.send {
		rep.msgs = n.Send(c.round)
		return rep
	}
	if op = "Receive"; c.deliver {
		n.Receive(c.round, c.msgs)
	}
	if op = "Decision"; c.decide {
		rep.value, rep.decided = n.Decision()
	}
	return rep
}

func initialize(n Node, id int, g *graph.Graph, input Value, guard bool) (f *fault) {
	op := "Init"
	if guard {
		defer catch(&op, &f)
	}
	n.Init(id, g, input)
	return nil
}

func catch(op *string, f **fault) {
	if v := recover(); v != nil {
		*f = &fault{op: *op, val: v, stack: debug.Stack()}
	}
}

// fail handles the panic f (if any) caught in node i's round-r call: a
// hardened run crash-stops the node, any other re-raises the panic.
func (x *execution) fail(i, r int, f *fault) {
	if f != nil {
		x.crash(i, r, f)
	}
}

func (x *execution) crash(i, r int, f *fault) {
	if !x.harden {
		panic(f.val)
	}
	x.crashed[i] = true
	diag := fmt.Sprintf("%s panicked at round %d: %v\n%s", f.op, r, f.val, f.stack)
	x.ht.Crashes = append(x.ht.Crashes, NodeCrash{Node: i, Round: r, Op: f.op, Diag: diag})
}

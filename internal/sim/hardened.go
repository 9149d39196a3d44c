package sim

import (
	"fmt"
	"runtime/debug"
	"strings"
)

// The hardened runner exists for chaos testing (internal/chaos): it
// executes the same round loop as Run but fails closed. A process
// that panics mid-round is converted into a crash-stop — its panic value
// and stack are captured as a Crash diagnostic, it stops sending and
// receiving, and only its own trace entries suffer — and the run obeys a
// context, so a non-terminating execution can never hang the caller.

// Crash records a process panic absorbed by the hardened runner and
// converted into a crash-stop.
type Crash struct {
	// Proc is the process that panicked.
	Proc ID
	// Round is the round (1-based) in which the panic occurred.
	Round int
	// Op is the process method that panicked ("Init", "Send", "Receive"
	// or "Decision").
	Op string
	// Diag is the panic value followed by the goroutine stack.
	Diag string
}

// String implements fmt.Stringer.
func (c Crash) String() string {
	line, _, _ := strings.Cut(c.Diag, "\n")
	return fmt.Sprintf("%s panicked in %s at round %d: %s", c.Proc, c.Op, c.Round, line)
}

// HardenedTrace couples a trace with the failures the hardened runner
// absorbed on its behalf.
type HardenedTrace struct {
	Trace
	// Crashes lists the process panics converted to crash-stops (at most
	// one per process).
	Crashes []Crash
	// Interrupted is set when the context expired before the run finished;
	// Err then carries the context error.
	Interrupted bool
	Err         error
}

// fault is a process panic caught by a try function.
type fault struct {
	op    string
	val   any
	stack []byte
}

func catch(op string, f **fault) {
	if v := recover(); v != nil {
		*f = &fault{op: op, val: v, stack: debug.Stack()}
	}
}

// The try functions make one process call, recovering a panic.

func tryInit(p Process, id ID, input Value, guard bool) (f *fault) {
	if guard {
		defer catch("Init", &f)
	}
	p.Init(id, input)
	return nil
}

func trySend(p Process, r int) (msg Message, ok bool, f *fault) {
	defer catch("Send", &f)
	msg, ok = p.Send(r)
	return msg, ok, nil
}

func tryReceive(p Process, r int, msg Message) (f *fault) {
	defer catch("Receive", &f)
	p.Receive(r, msg)
	return nil
}

func tryDecision(p Process) (v Value, ok bool, f *fault) {
	defer catch("Decision", &f)
	v, ok = p.Decision()
	return v, ok, nil
}

// fail handles the panic f (if any) caught in process i's round-r call: a
// hardened run crash-stops the process, any other re-raises the panic.
func (x *execution) fail(i ID, r int, f *fault) {
	if f != nil {
		x.crash(i, r, f)
	}
}

func (x *execution) crash(i ID, r int, f *fault) {
	if !x.harden {
		panic(f.val)
	}
	x.crashed[i] = true
	x.ht.Crashes = append(x.ht.Crashes, Crash{Proc: i, Round: r, Op: f.op, Diag: fmt.Sprintf("%v\n%s", f.val, f.stack)})
}

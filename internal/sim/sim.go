// Package sim is the synchronous two-process message-passing kernel of the
// Coordinated Attack setting (Section II-C of Fevat & Godard): in each
// round r every process sends a message, receives the other's message —
// unless the round's omission letter drops it — and updates its state.
//
// One round loop runs every execution; the runners differ only in where
// the process calls run and what a process panic does. Run calls the
// processes on the caller's goroutine; RunGoroutines hosts each on a
// CSP-style server goroutine, the round structure enforced purely by
// communication; both re-raise a panic on the caller's goroutine.
// RunHardened crash-stops a panicking process and obeys a context. Only
// undecided live processes are asked for their decision.
package sim

import (
	"context"
	"fmt"

	"repro/internal/omission"
)

// ID names the two processes.
type ID int

const (
	// White is the process whose messages are dropped by letter 'w'.
	White ID = iota
	// Black is the process whose messages are dropped by letter 'b'.
	Black
)

// String implements fmt.Stringer.
func (id ID) String() string {
	if id == White {
		return "white"
	}
	return "black"
}

// Other returns the opposite process.
func (id ID) Other() ID { return 1 - id }

// Value is a consensus value. Binary consensus uses 0 and 1; None marks
// "not decided".
type Value int

// None is the absent value.
const None Value = -1

// Message is an algorithm-defined payload; nil means "nothing received".
type Message any

// Process is a deterministic synchronous process. The kernel drives it
// with the round structure of Section II-C: Send, then Receive, then
// (implicitly) the state update inside Receive.
//
// A process that has decided and halted must return ok=false from Send;
// the kernel then stops delivering to and from it, which is how the
// partner observes the halt (as missing messages), exactly as in the
// paper's termination argument.
type Process interface {
	// Init resets the process with its identity and input value.
	Init(id ID, input Value)
	// Send produces the round-r message (r is 1-based); ok=false means the
	// process has halted and sends nothing (now and forever).
	Send(r int) (msg Message, ok bool)
	// Receive delivers the message received in round r; nil when the
	// message was lost or the partner is silent.
	Receive(r int, msg Message)
	// Decision returns the decided value, ok=false while undecided.
	Decision() (Value, bool)
}

// Trace records one execution.
type Trace struct {
	// Inputs are the initial values.
	Inputs [2]Value
	// Played is the sequence of omission letters actually applied.
	Played omission.Word
	// Rounds is the number of rounds executed.
	Rounds int
	// Decisions holds each process's decided value (None if undecided).
	Decisions [2]Value
	// DecisionRound holds the round after which each process decided
	// (0 means decided at initialization; -1 means never).
	DecisionRound [2]int
	// TimedOut is set when maxRounds elapsed before both processes
	// decided.
	TimedOut bool
	// MessagesSent counts the messages handed to the kernel by both
	// processes; MessagesDelivered those that actually arrived (lost
	// messages and messages to/from halted processes account for the
	// difference).
	MessagesSent, MessagesDelivered int
}

// String summarizes the trace.
func (t Trace) String() string {
	return fmt.Sprintf("inputs=(%d,%d) scenario=%s rounds=%d decisions=(%d@%d, %d@%d) timedOut=%v",
		t.Inputs[0], t.Inputs[1], t.Played, t.Rounds,
		t.Decisions[0], t.DecisionRound[0], t.Decisions[1], t.DecisionRound[1], t.TimedOut)
}

// Equal reports whether two traces are identical.
func (t Trace) Equal(u Trace) bool {
	return t.Inputs == u.Inputs && t.Played.Equal(u.Played) && t.Rounds == u.Rounds &&
		t.Decisions == u.Decisions && t.DecisionRound == u.DecisionRound && t.TimedOut == u.TimedOut &&
		t.MessagesSent == u.MessagesSent && t.MessagesDelivered == u.MessagesDelivered
}

// Adversary chooses the omission letter for each round, possibly
// adaptively based on the letters played so far. (The standard omission
// adversary is oblivious to message contents; algorithms in this
// repository are deterministic, so letter history determines everything
// anyway.)
type Adversary interface {
	// Next returns the letter for round r (1-based) given the past
	// letters.
	Next(r int, past omission.Word) omission.Letter
}

// SourceAdversary plays a fixed scenario.
type SourceAdversary struct{ Src omission.Source }

// Next implements Adversary.
func (s SourceAdversary) Next(r int, _ omission.Word) omission.Letter { return s.Src.At(r - 1) }

// FuncAdversary adapts a function to the Adversary interface.
type FuncAdversary func(r int, past omission.Word) omission.Letter

// Next implements Adversary.
func (f FuncAdversary) Next(r int, past omission.Word) omission.Letter { return f(r, past) }

// Run executes the two processes under the adversary for at most
// maxRounds rounds, sequentially. Processes are Init-ed with the given
// inputs. The run stops as soon as both processes have decided (a decided
// process may keep running until its partner decides — per the Process
// contract it signals halt via Send). A process panic propagates.
func Run(white, black Process, inputs [2]Value, adv Adversary, maxRounds int) Trace {
	return runner{}.run(context.Background(), white, black, inputs, adv, maxRounds).Trace
}

// RunScenario is Run with a fixed scenario source.
func RunScenario(white, black Process, inputs [2]Value, src omission.Source, maxRounds int) Trace {
	return Run(white, black, inputs, SourceAdversary{src}, maxRounds)
}

// RunGoroutines is Run with each process hosted in its own goroutine. The
// trace is identical to Run's: determinism comes from the lock-step
// protocol, not from scheduling. A panic is re-raised on the caller's
// goroutine.
func RunGoroutines(white, black Process, inputs [2]Value, adv Adversary, maxRounds int) Trace {
	return runner{servers: true}.run(context.Background(), white, black, inputs, adv, maxRounds).Trace
}

// RunGoroutinesScenario is RunGoroutines with a fixed scenario source.
func RunGoroutinesScenario(white, black Process, inputs [2]Value, src omission.Source, maxRounds int) Trace {
	return RunGoroutines(white, black, inputs, SourceAdversary{src}, maxRounds)
}

// RunHardened is Run with panic isolation and context-based cancellation:
// a panicking process is converted into a crash-stop, an expired context
// stops the run at the next round boundary with Interrupted set, and a
// run whose processes both crashed stops early.
func RunHardened(ctx context.Context, white, black Process, inputs [2]Value, adv Adversary, maxRounds int) HardenedTrace {
	return runner{harden: true}.run(ctx, white, black, inputs, adv, maxRounds)
}

// RunHardenedScenario is RunHardened with a fixed scenario source.
func RunHardenedScenario(ctx context.Context, white, black Process, inputs [2]Value, src omission.Source, maxRounds int) HardenedTrace {
	return RunHardened(ctx, white, black, inputs, SourceAdversary{src}, maxRounds)
}

// A runner picks where process calls run (inline, or on one server
// goroutine per process) and whether a panic crash-stops the process.
type runner struct{ servers, harden bool }

// execution is one run in progress.
type execution struct {
	procs   [2]Process
	harden  bool
	crashed [2]bool
	ht      HardenedTrace
}

// run is the package's one round loop. Init and the round-0 decisions run
// on the caller's goroutine; inline calls are direct unless hardened.
func (rn runner) run(ctx context.Context, white, black Process, inputs [2]Value, adv Adversary, maxRounds int) HardenedTrace {
	x := &execution{procs: [2]Process{white, black}, harden: rn.harden}
	x.ht.Trace = Trace{Inputs: inputs, Decisions: [2]Value{None, None}, DecisionRound: [2]int{-1, -1}}
	for i, p := range &x.procs {
		x.fail(ID(i), 0, tryInit(p, ID(i), inputs[i], x.harden))
	}
	// decide asks the undecided live processes for their decision after
	// round r.
	decide := func(r int) {
		for i, p := range &x.procs {
			switch {
			case x.crashed[i] || x.ht.DecisionRound[i] >= 0:
			case x.harden:
				v, ok, f := tryDecision(p)
				x.fail(ID(i), r, f)
				x.record(i, r, v, ok)
			default:
				v, ok := p.Decision()
				x.record(i, r, v, ok)
			}
		}
	}
	if decide(0); x.decided() {
		return x.ht
	}
	var s *servers
	if rn.servers {
		s = serve(x.procs)
		defer s.close()
	}
	done := ctx.Done() // nil when ctx can never be cancelled
	for r := 1; r <= maxRounds; r++ {
		if done != nil && ctx.Err() != nil {
			x.ht.Interrupted, x.ht.Err, x.ht.TimedOut = true, ctx.Err(), true
			return x.ht
		}
		letter := adv.Next(r, x.ht.Played)
		x.ht.Played = append(x.ht.Played, letter)
		x.ht.Rounds = r

		// ok=false: the process has halted or crashed and sends nothing.
		var msg [2]Message
		var ok [2]bool
		for i, p := range &x.procs {
			switch {
			case x.crashed[i]:
			case s != nil:
				s.calls[i] <- call{round: r, send: true}
			case x.harden:
				var f *fault
				msg[i], ok[i], f = trySend(p, r)
				x.fail(ID(i), r, f)
			default:
				msg[i], ok[i] = p.Send(r)
			}
		}
		if s != nil {
			for i, rep := range s.collect(x, r) {
				msg[i], ok[i] = rep.msg, rep.ok
			}
		}
		lost := [2]bool{letter.LostWhite(), letter.LostBlack()}
		var in [2]Message
		for i := range in {
			if !ok[i] {
				continue
			}
			x.ht.MessagesSent++
			if other := 1 - i; !lost[i] {
				in[other] = msg[i]
				if ok[other] {
					x.ht.MessagesDelivered++
				}
			}
		}

		// A halted process takes no receive step; a server also decides.
		for i, p := range &x.procs {
			switch {
			case x.crashed[i]:
			case s != nil:
				s.calls[i] <- call{round: r, deliver: ok[i], msg: in[i], decide: x.ht.DecisionRound[i] < 0}
			case !ok[i]:
			case x.harden:
				x.fail(ID(i), r, tryReceive(p, r, in[i]))
			default:
				p.Receive(r, in[i])
			}
		}
		if s == nil {
			decide(r)
		} else {
			for i, rep := range s.collect(x, r) {
				x.record(i, r, rep.value, rep.ok)
			}
		}
		if x.decided() {
			return x.ht
		}
		if x.crashed[White] && x.crashed[Black] {
			break // nothing can ever decide
		}
	}
	x.ht.TimedOut = true
	return x.ht
}

func (x *execution) record(i, r int, v Value, ok bool) {
	if ok {
		x.ht.Decisions[i], x.ht.DecisionRound[i] = v, r
	}
}

func (x *execution) decided() bool {
	return x.ht.DecisionRound[White] >= 0 && x.ht.DecisionRound[Black] >= 0
}

// Report is the outcome of checking the three consensus properties of
// Section II-B on a trace.
type Report struct {
	// Terminated: every process decided (uniform termination).
	Terminated bool
	// Agreement: no two processes decided differently.
	Agreement bool
	// Validity: if all inputs equal v, every decided value is v; decided
	// values are always some process's input.
	Validity bool
	// Violations lists human-readable property violations.
	Violations []string
}

// OK reports whether all three properties hold.
func (r Report) OK() bool { return r.Terminated && r.Agreement && r.Validity }

// Check verifies the consensus properties on a trace.
func Check(t Trace) Report {
	rep := Report{Terminated: true, Agreement: true, Validity: true}
	if t.TimedOut || t.DecisionRound[0] < 0 || t.DecisionRound[1] < 0 {
		rep.Terminated = false
		rep.Violations = append(rep.Violations, fmt.Sprintf("termination: decisions at rounds %v (timedOut=%v)", t.DecisionRound, t.TimedOut))
	}
	d0, d1 := t.Decisions[0], t.Decisions[1]
	if d0 != None && d1 != None && d0 != d1 {
		rep.Agreement = false
		rep.Violations = append(rep.Violations, fmt.Sprintf("agreement: white decided %d, black decided %d", d0, d1))
	}
	for i, d := range t.Decisions {
		if d == None {
			continue
		}
		if d != t.Inputs[0] && d != t.Inputs[1] {
			rep.Validity = false
			rep.Violations = append(rep.Violations, fmt.Sprintf("validity: %s decided %d, not an input of %v", ID(i), d, t.Inputs))
		}
		if t.Inputs[0] == t.Inputs[1] && d != t.Inputs[0] {
			rep.Validity = false
			rep.Violations = append(rep.Violations, fmt.Sprintf("validity: unanimous input %d but %s decided %d", t.Inputs[0], ID(i), d))
		}
	}
	return rep
}

// AllInputs enumerates the four binary input assignments.
func AllInputs() [][2]Value {
	return [][2]Value{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
}

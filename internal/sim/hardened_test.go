package sim_test

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/omission"
	"repro/internal/sim"
)

// exploding is echoOnce that panics in the named op at the named round
// (Init and Decision count as round 0 until the first Send).
type exploding struct {
	echoOnce
	op    string
	at    int
	round int
}

func (p *exploding) boom(op string) {
	if p.op == op && p.at == p.round {
		panic(op + " exploded")
	}
}

func (p *exploding) Init(id sim.ID, in sim.Value) {
	p.round = 0
	p.boom("Init")
	p.echoOnce.Init(id, in)
}

func (p *exploding) Send(r int) (sim.Message, bool) {
	p.round = r
	p.boom("Send")
	return p.echoOnce.Send(r)
}

func (p *exploding) Receive(r int, m sim.Message) {
	p.boom("Receive")
	// Decide one round late, so a Decision panic at round 2 can fire.
	if r >= 2 {
		p.echoOnce.Receive(r, m)
	}
}

func (p *exploding) Decision() (sim.Value, bool) {
	p.boom("Decision")
	return p.echoOnce.Decision()
}

// settle waits briefly for transient goroutines to exit and reports
// whether the count dropped back to the baseline.
func settle(before int) bool {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// TestRunGoroutinesPanicReachesCaller: a process panic on a server
// goroutine is re-raised on the caller's goroutine, as with Run, instead
// of killing the program, and no server goroutine outlives the run.
func TestRunGoroutinesPanicReachesCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, run := range []func(w, b sim.Process) sim.Trace{
		func(w, b sim.Process) sim.Trace {
			return sim.RunScenario(w, b, [2]sim.Value{0, 1}, omission.Constant(omission.None), 5)
		},
		func(w, b sim.Process) sim.Trace {
			return sim.RunGoroutinesScenario(w, b, [2]sim.Value{0, 1}, omission.Constant(omission.None), 5)
		},
	} {
		var got any
		func() {
			defer func() { got = recover() }()
			run(&exploding{op: "Send", at: 2}, &echoOnce{})
		}()
		if got != "Send exploded" {
			t.Fatalf("recovered %v, want the process's panic value", got)
		}
	}
	if !settle(before) {
		t.Fatalf("server goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
	}
}

// TestRunHardenedPanicIsolation checks, for each op, that a panicking
// process is crash-stopped with a diagnostic while its partner decides,
// and that a run whose processes both crashed stops at once.
func TestRunHardenedPanicIsolation(t *testing.T) {
	for _, c := range []struct {
		op    string
		round int
	}{{"Init", 0}, {"Send", 2}, {"Receive", 2}, {"Decision", 2}} {
		ht := sim.RunHardenedScenario(context.Background(), &exploding{op: c.op, at: c.round}, &echoOnce{},
			[2]sim.Value{0, 1}, omission.Constant(omission.None), 8)
		if len(ht.Crashes) != 1 {
			t.Fatalf("%s: crashes %v, want one", c.op, ht.Crashes)
		}
		cr := ht.Crashes[0]
		if cr.Proc != sim.White || cr.Op != c.op || cr.Round != c.round || !strings.HasPrefix(cr.Diag, c.op+" exploded\n") {
			t.Fatalf("%s: crash %v (diag %q)", c.op, cr, cr.Diag)
		}
		if ht.DecisionRound[sim.White] >= 0 || ht.DecisionRound[sim.Black] != 1 || ht.Decisions[sim.Black] != 1 {
			t.Fatalf("%s: decisions %s", c.op, ht.Trace)
		}
		if ht.Interrupted || !ht.TimedOut {
			t.Fatalf("%s: interrupted=%v timedOut=%v", c.op, ht.Interrupted, ht.TimedOut)
		}
	}
	ht := sim.RunHardenedScenario(context.Background(), &exploding{op: "Send", at: 2}, &exploding{op: "Send", at: 2},
		[2]sim.Value{0, 1}, omission.Constant(omission.LossBoth), 8)
	if len(ht.Crashes) != 2 || !ht.TimedOut || ht.Rounds != 2 || ht.MessagesSent != 2 {
		t.Fatalf("both crashed: crashes=%v %s sent=%d", ht.Crashes, ht.Trace, ht.MessagesSent)
	}
}

// asked counts its Decision calls; it decides at initialization.
type asked struct {
	instant
	calls int
}

func (p *asked) Decision() (sim.Value, bool) {
	p.calls++
	return p.instant.Decision()
}

// askedStubborn counts its Decision calls; it never decides.
type askedStubborn struct {
	stubborn
	calls int
}

func (p *askedStubborn) Decision() (sim.Value, bool) {
	p.calls++
	return p.stubborn.Decision()
}

// TestRunnersAskOnlyUndecided: every runner asks an undecided process once
// per round and never asks a decided process again (the goroutine runner
// once asked after every round).
func TestRunnersAskOnlyUndecided(t *testing.T) {
	src := omission.Constant(omission.None)
	for name, run := range map[string]func(w, b sim.Process) sim.Trace{
		"Run": func(w, b sim.Process) sim.Trace { return sim.RunScenario(w, b, [2]sim.Value{0, 1}, src, 6) },
		"RunGoroutines": func(w, b sim.Process) sim.Trace {
			return sim.RunGoroutinesScenario(w, b, [2]sim.Value{0, 1}, src, 6)
		},
		"RunHardened": func(w, b sim.Process) sim.Trace {
			return sim.RunHardenedScenario(context.Background(), w, b, [2]sim.Value{0, 1}, src, 6).Trace
		},
	} {
		w, b := &asked{}, &askedStubborn{}
		tr := run(w, b)
		if tr.Rounds != 6 || tr.DecisionRound[sim.White] != 0 || w.calls != 1 || b.calls != 7 {
			t.Errorf("%s: %s, Decision asked %d and %d times, want 1 and 7", name, tr, w.calls, b.calls)
		}
	}
}

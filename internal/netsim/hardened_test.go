package netsim

import (
	"context"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/sim"
)

// settleGoroutines waits briefly for transient goroutines to exit and
// returns false if the count never drops back to the baseline.
func settleGoroutines(before int) bool {
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			return false
		}
		runtime.Gosched()
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// TestGoroutineRunnerNoLeakOnCancellation is the regression test for the
// goroutine leak: cancelling the context mid-run must still release every
// node server goroutine.
func TestGoroutineRunnerNoLeakOnCancellation(t *testing.T) {
	g := graph.Cycle(6)
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel() // already cancelled: the run is interrupted immediately
		ht := RunGoroutinesHardened(ctx, g, nodes(6, 100), make([]Value, 6), NoDrops{}, 50)
		if !ht.Interrupted {
			t.Fatalf("iteration %d: cancelled run not interrupted", i)
		}
	}
	if !settleGoroutines(before) {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		t.Fatalf("leaked goroutines after cancelled runs: before=%d after=%d\n%s",
			before, runtime.NumGoroutine(), buf[:n])
	}
}

// TestGoroutineRunnerNoLeakOnDeadline drives a run into a wall-clock
// deadline and checks both the interruption report and the cleanup.
func TestGoroutineRunnerNoLeakOnDeadline(t *testing.T) {
	g := graph.Complete(3)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	slow := []Node{
		&slowTestNode{countNode{after: 1000}},
		&slowTestNode{countNode{after: 1000}},
		&slowTestNode{countNode{after: 1000}},
	}
	ht := RunGoroutinesHardened(ctx, g, slow, make([]Value, 3), NoDrops{}, 1000)
	if !ht.Interrupted || ht.Err == nil {
		t.Fatalf("deadline run not interrupted: %+v", ht)
	}
	if !ht.TimedOut {
		t.Fatal("interrupted run should be marked timed out")
	}
	if !settleGoroutines(before) {
		t.Fatalf("leaked goroutines after deadline: before=%d after=%d", before, runtime.NumGoroutine())
	}
}

type slowTestNode struct{ countNode }

func (s *slowTestNode) Send(r int) map[int]Message {
	time.Sleep(5 * time.Millisecond)
	return s.countNode.Send(r)
}

// panicTestNode panics in the named operation at the named round.
type panicTestNode struct {
	countNode
	op    string
	round int
}

func (p *panicTestNode) Init(id int, g *graph.Graph, in Value) {
	if p.op == "init" {
		panic("init exploded")
	}
	p.countNode.Init(id, g, in)
}

func (p *panicTestNode) Send(r int) map[int]Message {
	if p.op == "send" && r == p.round {
		panic("send exploded")
	}
	return p.countNode.Send(r)
}

func (p *panicTestNode) Receive(r int, msgs map[int]Message) {
	if p.op == "receive" && r == p.round {
		panic("receive exploded")
	}
	p.countNode.Receive(r, msgs)
}

// TestHardenedRunnersPanicIsolation checks, for each operation and both
// runners, that a panicking node is crash-stopped with a diagnostic while
// the others finish, and that no goroutine outlives the run.
func TestHardenedRunnersPanicIsolation(t *testing.T) {
	g := graph.Complete(4)
	before := runtime.NumGoroutine()
	for _, op := range []string{"init", "send", "receive"} {
		for _, concurrent := range []bool{true, false} {
			ns := nodes(4, 2)
			ns[1] = &panicTestNode{op: op, round: 2}
			var ht HardenedTrace
			if concurrent {
				ht = RunGoroutinesHardened(context.Background(), g, ns, make([]Value, 4), NoDrops{}, 8)
			} else {
				ht = RunHardened(context.Background(), g, ns, make([]Value, 4), NoDrops{}, 8)
			}
			if len(ht.Crashes) != 1 {
				t.Fatalf("op=%s concurrent=%v: crashes=%v, want one", op, concurrent, ht.Crashes)
			}
			c, ok := ht.Crashed(1)
			if !ok || c.Node != 1 {
				t.Fatalf("op=%s concurrent=%v: node 1 not reported crashed: %v", op, concurrent, ht.Crashes)
			}
			if !strings.Contains(c.Diag, "exploded") {
				t.Fatalf("op=%s concurrent=%v: diagnostic lost the panic: %q", op, concurrent, c.Diag)
			}
			for i, d := range ht.Decisions {
				if i == 1 {
					continue
				}
				if d == sim.None {
					t.Errorf("op=%s concurrent=%v: surviving node %d undecided", op, concurrent, i)
				}
			}
		}
	}
	if !settleGoroutines(before) {
		t.Fatalf("leaked goroutines after panic runs: before=%d after=%d", before, runtime.NumGoroutine())
	}
}

// TestHardenedMatchesPlainOnCleanRuns pins the hardened runners to the
// plain ones when nothing crashes and no deadline fires.
func TestHardenedMatchesPlainOnCleanRuns(t *testing.T) {
	g := graph.Cycle(5)
	in := []Value{0, 1, 0, 1, 1}
	adv := FuncAdversary(func(r int, _ *graph.Graph) map[graph.DirEdge]bool {
		return map[graph.DirEdge]bool{{From: r % 5, To: (r + 1) % 5}: true}
	})
	plain := Run(g, nodes(5, 3), in, adv, 6)
	hard := RunHardened(context.Background(), g, nodes(5, 3), in, adv, 6)
	conc := RunGoroutinesHardened(context.Background(), g, nodes(5, 3), in, adv, 6)
	for i := range plain.Decisions {
		if plain.Decisions[i] != hard.Decisions[i] || plain.Decisions[i] != conc.Decisions[i] {
			t.Fatalf("node %d: plain=%v hard=%v conc=%v", i, plain.Decisions[i], hard.Decisions[i], conc.Decisions[i])
		}
	}
	if len(hard.Crashes) != 0 || len(conc.Crashes) != 0 || hard.Interrupted || conc.Interrupted {
		t.Fatalf("clean runs reported faults: %+v / %+v", hard, conc)
	}
}

// fourthAskPanics decides at initialization and panics when asked for its
// decision a fourth time.
type fourthAskPanics struct {
	rogueNode
	asked int
}

func (p *fourthAskPanics) Decision() (Value, bool) {
	if p.asked++; p.asked == 4 {
		panic("asked again")
	}
	return p.rogueNode.Decision()
}

// countAsks counts its Decision calls.
type countAsks struct {
	countNode
	asked int
}

func (p *countAsks) Decision() (Value, bool) {
	p.asked++
	return p.countNode.Decision()
}

// TestRunnersAskOnlyUndecided: every runner asks an undecided node once
// per round and never asks a decided node again (the goroutine runner
// once asked after every round, so it alone saw node 0 panic).
func TestRunnersAskOnlyUndecided(t *testing.T) {
	g := graph.Complete(3)
	for _, concurrent := range []bool{false, true} {
		decided, undecided := &fourthAskPanics{}, &countAsks{countNode: countNode{after: 100}}
		ns := []Node{decided, undecided, &countNode{after: 100}}
		var ht HardenedTrace
		if concurrent {
			ht = RunGoroutinesHardened(context.Background(), g, ns, make([]Value, 3), NoDrops{}, 6)
		} else {
			ht = RunHardened(context.Background(), g, ns, make([]Value, 3), NoDrops{}, 6)
		}
		if len(ht.Crashes) != 0 || ht.Rounds != 6 || ht.DecisionRound[0] != 0 || decided.asked != 1 || undecided.asked != 7 {
			t.Fatalf("concurrent=%v: crashes=%v %s, asked %d and %d times", concurrent, ht.Crashes, ht.Trace, decided.asked, undecided.asked)
		}
	}
}

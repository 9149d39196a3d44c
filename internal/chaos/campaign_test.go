package chaos

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/consensus"
	"repro/internal/omission"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// TestChaosCampaignSevenEnvironments is the headline acceptance test: at
// least 10k seeded random A_w executions spread over the seven Section IV
// environments complete with zero violations — and zero leaked
// goroutines. The two obstructions (R1, S2) have no algorithm to run by
// Theorem III.8; the campaign verifies that refusal instead.
func TestChaosCampaignSevenEnvironments(t *testing.T) {
	perScheme := 2000 // 5 solvable schemes × 2000 = 10k executions
	if testing.Short() {
		perScheme = 100
	}
	before := runtime.NumGoroutine()

	solvable := 0
	for _, s := range scheme.SevenEnvironments() {
		algo, err := AWForScheme(s)
		if err != nil {
			if s.Name() != "R1" && s.Name() != "S2" {
				t.Fatalf("AWForScheme(%s): %v", s.Name(), err)
			}
			if !strings.Contains(err.Error(), "obstruction") {
				t.Fatalf("AWForScheme(%s): want obstruction error, got %v", s.Name(), err)
			}
			continue
		}
		solvable++
		rep, err := RunCampaignCtx(context.Background(), Config{
			Scheme:         s,
			Algo:           algo,
			Executions:     perScheme,
			Seed:           0xC0FFEE ^ int64(solvable),
			CheckInvariant: true,
			Deadline:       30 * time.Second,
		})
		if err != nil {
			t.Fatalf("campaign on %s: %v", s.Name(), err)
		}
		if !rep.OK() {
			t.Errorf("campaign on %s found violations:\n%s", s.Name(), rep)
		}
		if rep.Rounds == 0 {
			t.Errorf("campaign on %s executed zero rounds", s.Name())
		}
	}
	if solvable != 5 {
		t.Fatalf("expected 5 solvable environments, got %d", solvable)
	}

	checkNoLeakedGoroutines(t, before)
}

func checkNoLeakedGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("leaked goroutines: before=%d after=%d\n%s", before, runtime.NumGoroutine(), buf[:n])
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// firstCleanExchangeAlgo wraps the deliberately-unsound algorithm for
// single-omission schemes: FirstCleanExchange assumes receptions are
// common knowledge, which only holds on the all-or-nothing channel.
func firstCleanExchangeAlgo(deadline int) Algorithm {
	return Algorithm{
		Name: "FirstCleanExchange",
		New: func() (sim.Process, sim.Process) {
			return &consensus.FirstCleanExchange{Deadline: deadline},
				&consensus.FirstCleanExchange{Deadline: deadline}
		},
	}
}

// TestFirstCleanExchangeViolationMinimized runs the known-bad algorithm
// on S1 and demands a minimized, seed-stamped, reproducible violation.
func TestFirstCleanExchangeViolationMinimized(t *testing.T) {
	s := scheme.S1()
	cfg := Config{
		Scheme:     s,
		Algo:       firstCleanExchangeAlgo(0),
		Executions: 200,
		Seed:       1,
		MaxRounds:  40,
	}
	rep, err := RunCampaignCtx(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("FirstCleanExchange on S1 produced no violation; it is unsound there")
	}
	v := rep.Violations[0]
	if v.Property != PropTermination {
		t.Fatalf("violation property = %s, want %s", v.Property, PropTermination)
	}
	if !v.Minimized {
		t.Fatalf("violation was not minimized: %s", v)
	}
	// The minimal reproduction is a single lost message followed by the
	// clean tail: one omission starves the unlucky process forever.
	if lossy, lost := v.MinScenario.Prefix().CountLosses(); lossy != 1 || lost != 1 {
		t.Errorf("minimized scenario %s: want exactly one lost message in prefix, got %d rounds/%d messages",
			v.MinScenario, lossy, lost)
	}
	if v.Seed == 0 && v.Execution == 0 {
		t.Error("violation carries no replay seed")
	}

	// The stamped seed replays the identical failing execution.
	rng := NewRand(v.Seed)
	sc, ok := s.SampleScenario(rng, 1+rng.Intn(8))
	if !ok {
		t.Fatal("replay: sampling failed")
	}
	if !sc.Equal(v.Scenario) {
		t.Fatalf("replay scenario %s differs from reported %s", sc, v.Scenario)
	}
	inputs := [2]sim.Value{sim.Value(rng.Intn(2)), sim.Value(rng.Intn(2))}
	if inputs[0] != v.Inputs[0] || inputs[1] != v.Inputs[1] {
		t.Fatalf("replay inputs %v differ from reported %v", inputs, v.Inputs)
	}
	if got := runTwoProcess(context.Background(), &cfg, sc, inputs); got.Property != v.Property {
		t.Fatalf("replay did not reproduce %s (prop=%q)", v.Property, got.Property)
	}
}

// TestInvariantWatchdog exercises both sides of the Proposition III.12
// checker: a Γ-run of a matched A_w pair maintains the invariant, and a
// run leaving Γ (double omission) is rejected with a diagnostic.
func TestInvariantWatchdog(t *testing.T) {
	good := omission.MustScenario("(w)")
	if d, ok := CheckAWInvariant(good, [2]sim.Value{0, 1}, omission.MustScenario("(.)"), 50); !ok {
		t.Fatalf("invariant should hold for matching witness: %s", d)
	}
	if d, ok := CheckAWInvariant(good, [2]sim.Value{0, 1}, omission.MustScenario("wb.w(.)"), 50); !ok {
		t.Fatalf("invariant should hold on a Γ scenario with omissions: %s", d)
	}
	d, ok := CheckAWInvariant(good, [2]sim.Value{0, 1}, omission.MustScenario("x(.)"), 50)
	if ok {
		t.Fatal("double-omission run passed the Γ-only invariant checker")
	}
	if !strings.Contains(d, "double omission") {
		t.Fatalf("diagnostic should name the double omission, got %q", d)
	}
}

// TestCampaignCatchesMismatchedPair runs an A_w pair whose halves
// disagree about the excluded scenario — white excludes (w), black
// excludes (b). Their indices stop bracketing ind(v) and the consensus
// properties (and thus some watchdog) must trip.
func TestCampaignCatchesMismatchedPair(t *testing.T) {
	bad := Algorithm{
		Name: "A_w[mismatched pair]",
		New: func() (sim.Process, sim.Process) {
			return consensus.NewAW(omission.MustScenario("(w)")), consensus.NewAW(omission.MustScenario("(b)"))
		},
	}
	rep, err := RunCampaignCtx(context.Background(), Config{
		Scheme:     scheme.S1(),
		Algo:       bad,
		Executions: 300,
		Seed:       7,
		MaxRounds:  60,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("mismatched-witness A_w pair passed every watchdog; expected a violation")
	}
}

// panicAt is a process that panics inside Receive at a given round.
type panicAt struct {
	consensus.FirstCleanExchange
	round int
}

func (p *panicAt) Receive(r int, msg sim.Message) {
	if r == p.round {
		panic("injected fault: receive exploded")
	}
	p.FirstCleanExchange.Receive(r, msg)
}

// TestPanicIsolationTwoProcess checks that a process panicking mid-round
// fails only its own trace — recorded as a crash with a diagnostic — and
// never the test process.
func TestPanicIsolationTwoProcess(t *testing.T) {
	algo := Algorithm{
		Name: "panics-at-1",
		New: func() (sim.Process, sim.Process) {
			return &panicAt{round: 1}, &consensus.FirstCleanExchange{Deadline: 5}
		},
	}
	rep, err := RunCampaignCtx(context.Background(), Config{
		Scheme:     scheme.S0(),
		Algo:       algo,
		Executions: 5,
		Seed:       3,
		MaxRounds:  10,
		NoShrink:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("panicking algorithm produced no violation")
	}
	v := rep.Violations[0]
	if v.Property != PropPanic {
		t.Fatalf("property = %s, want %s", v.Property, PropPanic)
	}
	if !strings.Contains(v.Detail, "receive exploded") {
		t.Fatalf("diagnostic does not carry the panic value: %q", v.Detail)
	}
}

// slowProcess blocks in Send long enough to blow any reasonable deadline
// and never decides, so only the deadline can end the run.
type slowProcess struct{}

func (s *slowProcess) Init(sim.ID, sim.Value) {}
func (s *slowProcess) Send(r int) (sim.Message, bool) {
	time.Sleep(50 * time.Millisecond)
	return sim.Value(0), true
}
func (s *slowProcess) Receive(int, sim.Message)    {}
func (s *slowProcess) Decision() (sim.Value, bool) { return sim.None, false }

// TestDeadlineEnforcement checks that a wall-clock deadline interrupts a
// slow execution and is reported as a deadline violation.
func TestDeadlineEnforcement(t *testing.T) {
	algo := Algorithm{
		Name: "sleeper",
		New: func() (sim.Process, sim.Process) {
			return &slowProcess{}, &slowProcess{}
		},
	}
	rep, err := RunCampaignCtx(context.Background(), Config{
		Scheme:     scheme.S0(),
		Algo:       algo,
		Executions: 1,
		MaxRounds:  1000,
		Deadline:   20 * time.Millisecond,
		NoShrink:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("deadline did not fire")
	}
	if got := rep.Violations[0].Property; got != PropDeadline {
		t.Fatalf("property = %s, want %s", got, PropDeadline)
	}
}

// TestCampaignCancelBetweenExecutions cancels the campaign context from
// inside the algorithm factory after N instantiations and asserts the
// sweep aborts promptly: the partial report stops at exactly N
// executions and the campaign surfaces ctx.Err() — the context is
// re-checked between executions, not just when the sweep ends.
func TestCampaignCancelBetweenExecutions(t *testing.T) {
	const cancelAfter = 7
	s := scheme.S1()
	base, err := AWForScheme(s)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	built := 0
	counting := Algorithm{
		Name: base.Name,
		New: func() (sim.Process, sim.Process) {
			built++
			if built == cancelAfter {
				cancel()
			}
			return base.New()
		},
		Witness: base.Witness,
	}
	rep, err := RunCampaignCtx(ctx, Config{
		Scheme:     s,
		Algo:       counting,
		Executions: 10_000,
		Seed:       42,
		NoShrink:   true,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("campaign error = %v, want context.Canceled", err)
	}
	if rep == nil {
		t.Fatal("cancelled campaign returned no partial report")
	}
	if rep.Executions != cancelAfter {
		t.Fatalf("partial report counts %d executions, want %d (cancel must stop the very next execution)",
			rep.Executions, cancelAfter)
	}
	if built != cancelAfter {
		t.Fatalf("factory ran %d times after cancellation, want %d", built, cancelAfter)
	}
}

// TestCampaignCancelMidExecutionIsNotAViolation cancels the campaign
// inside the factory of execution 4, so that run is interrupted by the
// campaign's own context. That is no deadline violation of the
// algorithm: the run counts in Executions, nothing is recorded or
// shrunk, and the campaign returns ctx.Err() — also when a violation cap
// of 1 would otherwise have been filled by the phantom violation.
func TestCampaignCancelMidExecutionIsNotAViolation(t *testing.T) {
	s := scheme.S1()
	base, err := AWForScheme(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, maxViolations := range []int{0, 1} {
		ctx, cancel := context.WithCancel(context.Background())
		built := 0
		algo := base
		algo.New = func() (sim.Process, sim.Process) {
			if built++; built == 5 {
				cancel()
			}
			return base.New()
		}
		rep, err := RunCampaignCtx(ctx, Config{Scheme: s, Algo: algo, Executions: 100, Seed: 4, MaxViolations: maxViolations})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cap=%d: campaign error = %v, want context.Canceled", maxViolations, err)
		}
		if rep == nil || rep.Executions != 5 || !rep.OK() {
			t.Fatalf("cap=%d: report = %v, want 5 executions and no violation", maxViolations, rep)
		}
		if built != 5 {
			t.Fatalf("cap=%d: factory ran %d times, want 5 (the interrupted run is not shrunk)", maxViolations, built)
		}
	}
}

// TestShrinkIgnoresCandidatesTheCampaignInterrupted: execution 0 of a
// sleeper hits its own deadline, a real violation; the campaign is then
// cancelled while the shrinker re-runs it. An interrupted candidate
// proves nothing, so the violation is reported unminimized rather than
// "minimized" by runs the cancellation cut short.
func TestShrinkIgnoresCandidatesTheCampaignInterrupted(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	built := 0
	algo := Algorithm{Name: "sleeper", New: func() (sim.Process, sim.Process) {
		if built++; built == 2 {
			cancel()
		}
		return sleepyInit{}, mute{}
	}}
	rep, err := RunCampaignCtx(ctx, Config{Scheme: scheme.S1(), Algo: algo, Executions: 3, Seed: 5, Deadline: sleepyDeadline})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("campaign error = %v, want context.Canceled", err)
	}
	if rep == nil || rep.Executions != 1 || len(rep.Violations) != 1 {
		t.Fatalf("report = %v, want one execution with one violation", rep)
	}
	if v := rep.Violations[0]; v.Property != PropDeadline || v.Minimized {
		t.Fatalf("violation = %s, want an unminimized deadline violation", v)
	}
}

// TestCampaignIsDeterministic replays the same seed twice and compares
// reports.
func TestCampaignIsDeterministic(t *testing.T) {
	run := func() *Report {
		s := scheme.S1()
		algo, err := AWForScheme(s)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunCampaignCtx(context.Background(), Config{Scheme: s, Algo: algo, Executions: 50, Seed: 99, CheckInvariant: true})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	a, b := run(), run()
	if a.String() != b.String() {
		t.Fatalf("same seed, different reports:\n%s\n---\n%s", a, b)
	}
}

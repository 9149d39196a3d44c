package chaos

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/classify"
	"repro/internal/consensus"
	"repro/internal/omission"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// Algorithm is a two-process algorithm under chaos test: a factory for
// fresh process pairs, plus the A_w witness when the algorithm is A_w
// (enabling the Proposition III.12 invariant watchdog).
type Algorithm struct {
	Name string
	New  func() (white, black sim.Process)
	// Witness, when non-nil, is the excluded scenario of an A_w pair; the
	// campaign then additionally runs the knowledge-invariant watchdog on
	// every execution.
	Witness omission.Source
}

// AWForScheme classifies the scheme and returns the A_w algorithm from
// its witness — the standard known-good subject for chaos campaigns.
func AWForScheme(s *scheme.Scheme) (Algorithm, error) {
	v, err := classify.Classify(s)
	if err != nil {
		return Algorithm{}, err
	}
	if !v.Solvable {
		return Algorithm{}, fmt.Errorf("chaos: scheme %s is an obstruction — no algorithm to test", s.Name())
	}
	if !v.HasWitness {
		return Algorithm{}, fmt.Errorf("chaos: verdict for %s carries no witness", s.Name())
	}
	w := v.Witness
	return Algorithm{
		Name:    fmt.Sprintf("A_w[w=%s]", w),
		New:     func() (sim.Process, sim.Process) { return consensus.NewAW(w), consensus.NewAW(w) },
		Witness: w,
	}, nil
}

// Config parameterizes a two-process chaos campaign.
type Config struct {
	// Scheme is the environment; executions run under scenarios sampled
	// from it.
	Scheme *scheme.Scheme
	// Algo is the algorithm under test.
	Algo Algorithm
	// Executions is the number of seeded executions (default 1000).
	Executions int
	// Seed is the campaign master seed; per-execution seeds derive from
	// it (DeriveSeed) and are stamped into violations.
	Seed int64
	// MaxPrefix bounds the sampled scenario prefix length (default 8).
	MaxPrefix int
	// MaxRounds caps each execution (default 200); hitting the cap is a
	// termination violation.
	MaxRounds int
	// Deadline is the per-execution wall-clock budget (0 = none).
	Deadline time.Duration
	// CheckInvariant additionally runs the Proposition III.12 watchdog
	// (requires Algo.Witness and a Γ-scheme; default on when possible).
	CheckInvariant bool
	// NoShrink skips counterexample minimization.
	NoShrink bool
	// MaxViolations stops the campaign after this many violations
	// (default 8; the first is always minimized).
	MaxViolations int
}

func (c *Config) defaults() {
	if c.Executions <= 0 {
		c.Executions = 1000
	}
	if c.MaxPrefix <= 0 {
		c.MaxPrefix = 8
	}
	if c.MaxRounds <= 0 {
		c.MaxRounds = 200
	}
}

// Report aggregates a campaign's outcome.
type Report struct {
	Scheme     string
	Algorithm  string
	Seed       int64
	Executions int
	// Rounds is the total number of rounds executed across the campaign.
	Rounds int64
	// Violations holds the structured failures (bounded by
	// Config.MaxViolations); Violation.Seed replays each.
	Violations []Violation
}

// OK reports a clean campaign.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// String renders the summary, one stanza per violation.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos campaign: scheme=%s algorithm=%s seed=%d executions=%d rounds=%d violations=%d",
		r.Scheme, r.Algorithm, r.Seed, r.Executions, r.Rounds, len(r.Violations))
	for i := range r.Violations {
		fmt.Fprintf(&b, "\n%s", r.Violations[i])
	}
	return b.String()
}

// RunCampaignCtx executes Config.Executions seeded random executions of
// the algorithm under scenarios sampled from the scheme, each with panic
// isolation and an optional wall-clock deadline, checking every trace
// with the watchdog. The first violation is minimized by the shrinker.
//
// The campaign context is re-checked between executions and is the
// parent of every per-execution deadline, so cancellation aborts a sweep
// promptly. On cancellation the partial report is returned together with
// ctx.Err(); Report.Executions then counts the executions that ran.
func RunCampaignCtx(ctx context.Context, cfg Config) (*Report, error) {
	cfg.defaults()
	if cfg.Scheme == nil || cfg.Algo.New == nil {
		return nil, fmt.Errorf("chaos: campaign needs a scheme and an algorithm")
	}
	l := &loop{
		ctx:           ctx,
		deadline:      cfg.Deadline,
		maxViolations: cfg.MaxViolations,
		rep: &Report{
			Scheme:     cfg.Scheme.Name(),
			Algorithm:  cfg.Algo.Name,
			Seed:       cfg.Seed,
			Executions: cfg.Executions,
		},
		exec: func(ctx context.Context, rng *rand.Rand) (trial, error) {
			sc, ok := cfg.Scheme.SampleScenario(rng, 1+rng.Intn(cfg.MaxPrefix))
			if !ok {
				return trial{}, fmt.Errorf("chaos: scheme %s has no member scenarios", cfg.Scheme.Name())
			}
			return runTwoProcess(ctx, &cfg, sc, [2]sim.Value{sim.Value(rng.Intn(2)), sim.Value(rng.Intn(2))}), nil
		},
	}
	if !cfg.NoShrink {
		l.minimize = func(t trial) (omission.Scenario, bool) {
			return Shrink(cfg.Scheme, t.Played, t.Property, func(cand omission.Scenario) (Property, bool) {
				ctx, cancel := l.bound()
				defer cancel()
				c := runTwoProcess(ctx, &cfg, cand, [2]sim.Value(t.Inputs))
				return c.Property, c.Property != "" && !l.cancelled(c)
			})
		}
	}
	return l.run()
}

// runTwoProcess executes one hardened run of the algorithm under the
// scenario and classifies it; an A_w pair over a Γ scenario also gets
// the Proposition III.12 watchdog.
func runTwoProcess(ctx context.Context, cfg *Config, sc omission.Scenario, inputs [2]sim.Value) trial {
	white, black := cfg.Algo.New()
	ht := sim.RunHardenedScenario(ctx, white, black, inputs, sc, cfg.MaxRounds)
	t := trial{Violation: Violation{Scenario: sc, Played: ht.Played, Inputs: inputs[:]}, rounds: ht.Rounds, interrupted: ht.Interrupted, trace: ht.Trace}
	t.Property, t.Detail = classifyRun(crashStrings(ht.Crashes), ht.Interrupted, ht.Rounds, ht.Err, sim.Check(ht.Trace))
	if t.Property == "" && cfg.CheckInvariant && cfg.Algo.Witness != nil && sc.InGamma() {
		if d, ok := CheckAWInvariant(cfg.Algo.Witness, inputs, sc, cfg.MaxRounds); !ok {
			t.Property, t.Detail = PropInvariant, d
		}
	}
	return t
}

// trial is one classified execution: what it cost, whether its context
// interrupted it, and its Violation as far as the campaign kind knows it
// (Property is "" when the execution is clean).
type trial struct {
	Violation
	rounds      int
	interrupted bool
	trace       fmt.Stringer
}

// loop is the one campaign loop both campaign kinds run; exec and
// minimize are all that differs between them.
type loop struct {
	ctx      context.Context
	deadline time.Duration
	// maxViolations caps the recorded violations (8 when not positive).
	maxViolations int
	// rep arrives with Scheme, Algorithm, Seed and the planned Executions.
	rep *Report
	// exec draws one execution's inputs (and scenario) from rng, runs it
	// under ctx and classifies the trace.
	exec func(ctx context.Context, rng *rand.Rand) (trial, error)
	// minimize, when set, shrinks a violating execution's scenario.
	minimize func(trial) (omission.Scenario, bool)
}

// run sweeps the executions: it re-checks the campaign context between
// them, derives each execution's seed, bounds it by the per-execution
// deadline, and records its violation, stamped with the seed that
// replays it, until the violation cap. An execution that the campaign's
// own context interrupted proves nothing about the algorithm, so it is
// never a violation: the sweep stops there with ctx.Err(). So does a
// shrink that context cuts short, after recording its violation
// unminimized.
func (l *loop) run() (*Report, error) {
	rep, limit := l.rep, l.maxViolations
	if limit <= 0 {
		limit = 8
	}
	for i := 0; i < rep.Executions && len(rep.Violations) < limit; i++ {
		if err := l.ctx.Err(); err != nil {
			rep.Executions = i
			return rep, err
		}
		seed := DeriveSeed(rep.Seed, i)
		ctx, cancel := l.bound()
		t, err := l.exec(ctx, NewRand(seed))
		cancel()
		if err != nil {
			return nil, err
		}
		rep.Rounds += int64(t.rounds)
		if l.cancelled(t) {
			rep.Executions = i + 1
			return rep, l.ctx.Err()
		}
		if t.Property == "" {
			continue
		}
		v := t.Violation
		v.Scheme, v.Algorithm, v.Seed, v.Execution, v.Trace = rep.Scheme, rep.Algorithm, seed, i, t.trace.String()
		if l.minimize != nil {
			v.MinScenario, v.Minimized = l.minimize(t)
			if err := l.ctx.Err(); err != nil {
				// The campaign's context cut the shrink short: the
				// candidates it interrupted prove nothing, so the
				// violation is reported as played and the sweep ends.
				v.MinScenario, v.Minimized = omission.Scenario{}, false
				rep.Violations = append(rep.Violations, v)
				rep.Executions = i + 1
				return rep, err
			}
		}
		rep.Violations = append(rep.Violations, v)
	}
	return rep, nil
}

// bound returns the context of one execution: the per-execution
// deadline, parented on the campaign context.
func (l *loop) bound() (context.Context, context.CancelFunc) {
	if l.deadline > 0 {
		return context.WithTimeout(l.ctx, l.deadline)
	}
	return l.ctx, func() {}
}

// cancelled reports whether the campaign context, not the algorithm or
// the per-execution deadline, ended the execution.
func (l *loop) cancelled(t trial) bool { return t.interrupted && l.ctx.Err() != nil }

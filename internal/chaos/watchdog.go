package chaos

import (
	"fmt"
	"math/big"
	"strings"

	"repro/internal/consensus"
	"repro/internal/omission"
	"repro/internal/sim"
)

// Property names the guarantee a violation broke.
type Property string

// The checked properties, in reporting priority order: an absorbed panic
// or an expired deadline explains any downstream consensus-property
// failure, so it is reported instead.
const (
	PropPanic       Property = "panic"
	PropDeadline    Property = "deadline"
	PropAgreement   Property = "agreement"
	PropValidity    Property = "validity"
	PropTermination Property = "termination"
	PropInvariant   Property = "invariant" // Proposition III.12
)

// Violation is the structured report of one failed execution: which
// property broke, under which scenario and inputs, and the seed that
// replays it exactly.
type Violation struct {
	// Property is the broken guarantee.
	Property Property
	// Detail is the human-readable specifics (checker message, panic
	// diagnostic first line, …).
	Detail string
	// Scheme names the environment the execution ran under.
	Scheme string
	// Algorithm names the algorithm under test.
	Algorithm string
	// Scenario is the sampled scenario of the failing execution.
	Scenario omission.Scenario
	// Played is the letter prefix actually executed before the run ended.
	Played omission.Word
	// Inputs are the initial values (two entries for the two-process
	// kernel, n for a network execution).
	Inputs []sim.Value
	// Seed replays this execution: it is the per-execution seed derived
	// from the campaign seed, stamped so the report is reproducible on
	// its own.
	Seed int64
	// Execution is the index within the campaign.
	Execution int
	// Minimized is set once the shrinker ran; MinScenario is then the
	// smallest scenario found that still reproduces Property.
	Minimized   bool
	MinScenario omission.Scenario
	// Trace is the failing execution's trace summary.
	Trace string
}

// String renders the violation as a one-stanza report.
func (v Violation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "violation: %s\n", v.Property)
	fmt.Fprintf(&b, "  scheme=%s algorithm=%s seed=%d execution=%d\n", v.Scheme, v.Algorithm, v.Seed, v.Execution)
	if len(v.Scenario.Period()) > 0 {
		fmt.Fprintf(&b, "  scenario=%s played=%s\n", v.Scenario, v.Played)
	}
	if v.Minimized {
		fmt.Fprintf(&b, "  minimized=%s\n", v.MinScenario)
	}
	fmt.Fprintf(&b, "  inputs=%v\n", v.Inputs)
	if v.Trace != "" {
		fmt.Fprintf(&b, "  trace: %s\n", v.Trace)
	}
	fmt.Fprintf(&b, "  detail: %s", v.Detail)
	return b.String()
}

// classifyRun is the watchdog's ladder over one hardened run of either
// simulator: an absorbed panic, then an expired deadline, then
// agreement, validity and termination from the consensus check. It
// returns the first broken property, or "" when the run is clean.
func classifyRun(crashes []string, interrupted bool, rounds int, err error, check sim.Report) (Property, string) {
	switch {
	case len(crashes) > 0:
		return PropPanic, strings.Join(crashes, "; ")
	case interrupted:
		return PropDeadline, fmt.Sprintf("run interrupted after %d rounds: %v", rounds, err)
	case !check.Agreement:
		return PropAgreement, strings.Join(check.Violations, "; ")
	case !check.Validity:
		return PropValidity, strings.Join(check.Violations, "; ")
	case !check.Terminated:
		return PropTermination, strings.Join(check.Violations, "; ")
	}
	return "", ""
}

// crashStrings renders a hardened trace's crash records for classifyRun.
func crashStrings[C fmt.Stringer](crashes []C) []string {
	parts := make([]string, len(crashes))
	for i, c := range crashes {
		parts[i] = c.String()
	}
	return parts
}

// CheckAWInvariant runs the pair A_w under the scenario and verifies the
// Proposition III.12 knowledge invariant after every round in which
// neither process has halted:
//
//	|ind_W − ind_B| = 1,
//	sign(ind_B − ind_W) = (−1)^ind(v),
//	ind(v) = min(ind_W, ind_B),
//
// for the actually-played prefix v. It reports the first violated
// equation, or ok=true when the run (which must itself be over Γ)
// maintains the invariant throughout.
func CheckAWInvariant(witness omission.Source, inputs [2]sim.Value, sc omission.Source, maxRounds int) (detail string, ok bool) {
	white, black := consensus.NewAW(witness), consensus.NewAW(witness)
	white.Init(sim.White, inputs[0])
	black.Init(sim.Black, inputs[1])
	vInd := omission.NewIndexTracker()
	var played omission.Word
	one := big.NewInt(1)
	for r := 1; r <= maxRounds; r++ {
		letter := sc.At(r - 1)
		played = append(played, letter)

		wMsg, wOK := white.Send(r)
		bMsg, bOK := black.Send(r)
		var toWhite, toBlack sim.Message
		if bOK && !letter.LostBlack() {
			toWhite = bMsg
		}
		if wOK && !letter.LostWhite() {
			toBlack = wMsg
		}
		if wOK {
			if err := white.ReceiveChecked(r, toWhite); err != nil {
				return fmt.Sprintf("round %d of %v: white: %v", r, played, err), false
			}
		}
		if bOK {
			if err := black.ReceiveChecked(r, toBlack); err != nil {
				return fmt.Sprintf("round %d of %v: black: %v", r, played, err), false
			}
		}
		if _, err := vInd.StepChecked(letter); err != nil {
			return fmt.Sprintf("round %d of %v: %v", r, played, err), false
		}

		if !white.Halted() && !black.Halted() {
			iw, ib := white.Index(), black.Index()
			diff := new(big.Int).Sub(ib, iw)
			if diff.CmpAbs(one) != 0 {
				return fmt.Sprintf("round %d of %v: |ind_B−ind_W| = %v, want 1", r, played, diff), false
			}
			wantSign := 1
			if vInd.Parity() == 1 {
				wantSign = -1
			}
			if diff.Sign() != wantSign {
				return fmt.Sprintf("round %d of %v: sign(ind_B−ind_W)=%d, want (−1)^ind(v)=%d", r, played, diff.Sign(), wantSign), false
			}
			minInd := iw
			if ib.Cmp(iw) < 0 {
				minInd = ib
			}
			if minInd.Cmp(vInd.Peek()) != 0 {
				return fmt.Sprintf("round %d of %v: min(ind)=%v, ind(v)=%v", r, played, minInd, vInd.Peek()), false
			}
		}

		wDone := func() bool { _, d := white.Decision(); return d }()
		bDone := func() bool { _, d := black.Decision(); return d }()
		if wDone && bDone {
			return "", true
		}
	}
	// Non-termination is the termination watchdog's finding, not the
	// invariant's: the invariant held on every round we saw.
	return "", true
}

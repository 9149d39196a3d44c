// Package cli implements the logic of the repository's command-line tools
// (capsolve, capsim, capnet, experiments) as testable functions: each
// takes an argument vector and output writers and returns a process exit
// code. The cmd/ mains are one-line wrappers.
package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/big"
	"strconv"
	"strings"
	"time"

	coordattack "repro"
	"repro/internal/serve"
)

// rootContext builds the process-level context for a CLI invocation: the
// background context, bounded by -timeout when one was given. The cancel
// func is always non-nil.
func rootContext(timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout > 0 {
		return context.WithTimeout(context.Background(), timeout)
	}
	return context.WithCancel(context.Background())
}

type sliceFlag []string

func (m *sliceFlag) String() string { return strings.Join(*m, ",") }
func (m *sliceFlag) Set(s string) error {
	*m = append(*m, s)
	return nil
}

// Capsolve classifies an omission scheme (Theorem III.8) and prints the
// verdict, optionally with the bounded-horizon chain analysis and JSON
// output.
func Capsolve(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("capsolve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("scheme", "", "named scheme (see -list)")
	expr := fs.String("expr", "", `scheme expression, e.g. "[.w]^w | [.b]^w" or "R1 \ {w(b)} \ {.(b)}"`)
	list := fs.Bool("list", false, "list named schemes")
	jsonOut := fs.Bool("json", false, "emit the verdict as JSON")
	explain := fs.Bool("explain", false, "append a prose explanation of the verdict")
	dot := fs.Bool("dot", false, "print the scheme's Büchi automaton in Graphviz DOT format and exit")
	horizon := fs.Int("horizon", 0, "also run the bounded-round (chain) analysis up to this horizon — works for double-omission schemes too")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the bounded-round analysis (0 = none)")
	stats := fs.Bool("stats", false, "print engine instrumentation for the bounded-round analysis")
	backend := fs.String("backend", "auto", "analysis backend for the bounded-round analysis: auto|symbolic|enumerate")
	unindex := fs.String("unindex", "", `invert the index bijection: "r:k" prints the unique word of Γ^r with ind = k`)
	var minus sliceFlag
	fs.Var(&minus, "minus", "remove an ultimately periodic scenario 'u(v)' (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *unindex != "" {
		w, err := parseUnIndex(*unindex)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintln(stdout, w)
		return 0
	}
	if *list {
		for _, n := range coordattack.SchemeNames() {
			s, _ := coordattack.SchemeByName(n)
			fmt.Fprintf(stdout, "%-11s %s\n", n, s.Description())
		}
		return 0
	}
	if *name == "" && *expr == "" {
		fs.Usage()
		return 2
	}
	s, err := (&serve.SchemeSelector{Scheme: *name, Expr: *expr, Minus: minus}).Resolve()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}

	if *dot {
		fmt.Fprint(stdout, coordattack.SchemeDOT(s))
		return 0
	}

	v, err := coordattack.Classify(s)

	// The bounded-round chain analysis is the only open-ended computation
	// here; it runs under the -timeout root context so a huge horizon on a
	// hostile scheme cannot hang the tool.
	var chainHorizon *int
	var chainErr error
	var chainStats coordattack.EngineStats
	if *horizon > 0 {
		eng, berr := engineOptions(*backend)
		if berr != nil {
			fmt.Fprintln(stderr, berr)
			return 2
		}
		ctx, cancel := rootContext(*timeout)
		rep, cerr := coordattack.Analyze(ctx, coordattack.RoundsRequest{
			Scheme: s, Horizon: *horizon, MinRounds: true, VerdictOnly: true,
			Engine: eng,
		})
		cancel()
		chainErr = cerr
		if cerr == nil && rep.Found {
			p := rep.Rounds
			chainHorizon = &p
		}
		chainStats = rep.Stats
	}

	if *jsonOut {
		out := jsonVerdict{ClassifyResponse: serve.ClassifyVerdict(s, v, err)}
		if *horizon > 0 {
			out.ChainSearched, out.ChainHorizon = *horizon, chainHorizon
			if chainErr != nil {
				out.ChainError = chainErr.Error()
			}
			if *stats {
				out.EngineStats = &chainStats
			}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if chainErr != nil {
			return 1
		}
		return 0
	}
	fmt.Fprintf(stdout, "scheme:      %s (%s)\n", s.Name(), s.Description())
	if err != nil {
		fmt.Fprintf(stdout, "note:        %v\n", err)
	}
	if *horizon > 0 {
		if chainErr != nil {
			fmt.Fprintf(stderr, "capsolve: chain analysis aborted: %v\n", chainErr)
			return 1
		}
		if chainHorizon != nil {
			fmt.Fprintf(stdout, "chain:       bounded-round solvable from horizon %d\n", *chainHorizon)
		} else {
			fmt.Fprintf(stdout, "chain:       not bounded-round solvable up to horizon %d\n", *horizon)
		}
		if *stats {
			fmt.Fprintf(stdout, "engine:      %s\n", formatEngineStats(chainStats))
		}
	}
	if v == nil {
		return 1
	}
	if err != nil {
		fmt.Fprintf(stdout, "solvable:    undecided by Theorem III.8 (use -horizon for the bounded analysis)\n")
		return 0
	}
	fmt.Fprintf(stdout, "solvable:    %v\n", v.Solvable)
	fmt.Fprintf(stdout, "conditions:  (i) fair missing=%v  (ii) pair missing=%v  (iii) (w)^ω missing=%v  (iv) (b)^ω missing=%v\n",
		v.FairMissing, v.PairMissing, v.WOmegaMissing, v.BOmegaMissing)
	if v.HasWitness {
		fmt.Fprintf(stdout, "witness:     %s   [%s]\n", v.Witness, v.WitnessCondition)
	}
	if v.PairMissing {
		fmt.Fprintf(stdout, "pair:        (%s, %s)\n", v.Pair[0], v.Pair[1])
	}
	if v.MinRounds == coordattack.Unbounded {
		fmt.Fprintf(stdout, "rounds:      unbounded (Pref(L) = Γ*)\n")
	} else {
		fmt.Fprintf(stdout, "rounds:      exactly %d (witness word %s)\n", v.MinRounds, v.MinRoundsWitness)
	}
	if *explain {
		fmt.Fprintf(stdout, "\n%s", coordattack.ExplainVerdict(v))
	}
	return 0
}

// parseUnIndex parses the -unindex argument "r:k" (k may exceed int64;
// the big-integer inverse is used) and inverts the index bijection.
// Out-of-range input surfaces as an error, never a panic.
func parseUnIndex(arg string) (coordattack.Word, error) {
	rStr, kStr, ok := strings.Cut(arg, ":")
	if !ok {
		return nil, fmt.Errorf("capsolve: -unindex wants \"r:k\", got %q", arg)
	}
	r, err := strconv.Atoi(strings.TrimSpace(rStr))
	if err != nil {
		return nil, fmt.Errorf("capsolve: -unindex length %q: %v", rStr, err)
	}
	k, ok := new(big.Int).SetString(strings.TrimSpace(kStr), 10)
	if !ok {
		return nil, fmt.Errorf("capsolve: -unindex index %q is not an integer", kStr)
	}
	return coordattack.UnIndexChecked(r, k)
}

// jsonVerdict is capsolve's -json shape: the /v1/classify body plus the
// bounded-round chain analysis, when -horizon asked for one.
type jsonVerdict struct {
	serve.ClassifyResponse
	ChainHorizon  *int                     `json:"chainFirstSolvableHorizon,omitempty"`
	ChainSearched int                      `json:"chainHorizonSearched,omitempty"`
	ChainError    string                   `json:"chainError,omitempty"`
	EngineStats   *coordattack.EngineStats `json:"engineStats,omitempty"`
}

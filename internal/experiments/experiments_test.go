package experiments

import (
	"os"
	"strings"
	"testing"
)

// TestRegistry checks the registry shape and paper ordering.
func TestRegistry(t *testing.T) {
	all := All()
	if len(all) != len(paperOrder) {
		t.Fatalf("%d experiments, %d in paper order", len(all), len(paperOrder))
	}
	for i, e := range all {
		if e.Name != paperOrder[i] {
			t.Fatalf("order mismatch at %d: %s vs %s", i, e.Name, paperOrder[i])
		}
		if e.Paper == "" {
			t.Errorf("%s: empty paper pointer", e.Name)
		}
	}
	if _, err := ByName("fig1"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("zzz"); err == nil {
		t.Error("unknown experiment must error")
	}
	names := Names()
	if len(names) != len(all) || names[0] != "fig1" {
		t.Error("Names()")
	}
}

// TestExperimentsReproducePaper runs each experiment and pins the
// substantive markers of the paper's results in the reports.
func TestExperimentsReproducePaper(t *testing.T) {
	expect := map[string][]string{
		"fig1":       {"bb    0", "ww    8", ".w    3", "wb    6"},
		"index":      {"19683", "bijective"},
		"envs":       {"S0", "obstruction", "III.8.i: fair scenario ∉ L", "∞"},
		"thm38":      {"60/60", "37/37"},
		"prop312":    {"invariant/property violations  0"},
		"rounds":     {"S1      2                2               true"},
		"almostfair": {"4372"},
		"minimal":    {"80/80 pairs have lower out / upper in", "L_2     true         true"},
		"chains":     {"2187   true         false"},
		"network":    {"barbell-4-2  8   14  3    2     true            true             2..2"},
		"gammac":     {"30/30 identical decision profiles", "network replay violates consensus: true", "30/30 runs reach consensus"},
		"budget":     {"3  true      III.8.iii: (w)^ω ∉ L     4          4                true"},
		"beyond":     {"BX2", "never (≤6)", "ΣK2"},
		"growth":     {"65536", "2187", "511"},
		"early":      {"8                                           9              10"},
		"nproc":      {"beats flooding", "none ≤ 4", "matches the flooding bound", "star-4   1     0  1"},
		// 724 transitions for K_4 at horizon 5: the streaming engine's
		// transition table holds only real view transitions (the legacy
		// interner also counted the two initial pseudo-views, giving 726).
		"msgsize":  {"23              23              23.8", "724               968"},
		"dist":     {"S1          2    2    2    2    2.00"},
		"ho":       {"Γ^ω (equivalence verified: true)", "obstruction"},
		"floodlat": {"cycle-8      8  2     1  7                         7"},
	}
	all := All()
	outs := make([]string, len(all))
	for i, e := range all {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			out := e.Run()
			outs[i] = out
			if out == "" {
				t.Fatal("empty report")
			}
			for _, marker := range expect[e.Name] {
				if !strings.Contains(out, marker) {
					t.Errorf("%s: missing marker %q in report:\n%s", e.Name, marker, out)
				}
			}
			// Determinism: a second run yields the identical report.
			if e.Run() != out {
				t.Errorf("%s: report not deterministic", e.Name)
			}
		})
	}
	checkMeasuredBlock(t, outs)
}

// checkMeasuredBlock compares EXPERIMENTS.md's measured block with what
// `experiments -all` prints for these reports (each followed by a
// newline), ignoring trailing whitespace. It is skipped when a -run
// filter left some experiment out.
func checkMeasuredBlock(t *testing.T, outs []string) {
	t.Helper()
	var want strings.Builder
	for _, out := range outs {
		if out == "" {
			return
		}
		want.WriteString(out + "\n")
	}
	doc, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	const head = "# Measured output (`cmd/experiments -all`)\n\n```\n"
	_, block, ok := strings.Cut(string(doc), head)
	if !ok {
		t.Fatalf("EXPERIMENTS.md has no %q block", strings.TrimSpace(head))
	}
	block, _, _ = strings.Cut(block, "```")
	got, exp := trimLines(block), trimLines(want.String())
	for i := 0; i < len(got) || i < len(exp); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(exp) {
			w = exp[i]
		}
		if g != w {
			t.Fatalf("EXPERIMENTS.md measured block is stale at line %d of the block:\n  file: %q\n  -all: %q\nregenerate it with go run ./cmd/experiments -all", i+1, g, w)
		}
	}
}

// trimLines splits text into lines without trailing whitespace, dropping
// trailing blank lines.
func trimLines(text string) []string {
	lines := strings.Split(strings.TrimRight(text, " \t\n"), "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " \t")
	}
	return lines
}

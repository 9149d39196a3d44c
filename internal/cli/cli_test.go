package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	coordattack "repro"
	"repro/internal/serve"
	"repro/internal/serve/cluster"
	"repro/internal/serve/wire"
)

// runCmd runs one CLI entry point and returns (exit, stdout, stderr).
func runCmd(t *testing.T, f func([]string, *bytes.Buffer, *bytes.Buffer) int, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := f(args, &out, &errb)
	return code, out.String(), errb.String()
}

func capsolve(args []string, out, errb *bytes.Buffer) int { return Capsolve(args, out, errb) }
func capsim(args []string, out, errb *bytes.Buffer) int   { return Capsim(args, out, errb) }
func capnet(args []string, out, errb *bytes.Buffer) int   { return Capnet(args, out, errb) }
func capexp(args []string, out, errb *bytes.Buffer) int   { return Experiments(args, out, errb) }

func TestCapsolveNamed(t *testing.T) {
	code, out, _ := runCmd(t, capsolve, "-scheme", "S1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"solvable:    true", "fair missing=true", "rounds:      exactly 2"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCapsolveExprAndMinus(t *testing.T) {
	code, out, _ := runCmd(t, capsolve, "-expr", `[.wb]^w \ {(b)}`)
	if code != 0 || !strings.Contains(out, "solvable:    true") {
		t.Fatalf("expr run: %d\n%s", code, out)
	}
	code, out, _ = runCmd(t, capsolve, "-scheme", "R1", "-minus", "w(b)", "-minus", ".(b)")
	if code != 0 || !strings.Contains(out, "special pair") {
		t.Fatalf("minus run: %d\n%s", code, out)
	}
	// Obstruction verdict.
	code, out, _ = runCmd(t, capsolve, "-scheme", "R1")
	if code != 0 || !strings.Contains(out, "solvable:    false") {
		t.Fatalf("R1: %d\n%s", code, out)
	}
}

func TestCapsolveJSON(t *testing.T) {
	code, out, _ := runCmd(t, capsolve, "-scheme", "C1", "-json", "-horizon", "3")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var v jsonVerdict
	if err := json.Unmarshal([]byte(out), &v); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, out)
	}
	if v.Scheme != "C1" || v.Solvable == nil || !*v.Solvable || v.MinRounds == nil || *v.MinRounds != 2 {
		t.Errorf("verdict: %+v", v)
	}
	if v.ChainHorizon == nil || *v.ChainHorizon != 2 {
		t.Errorf("chain horizon: %+v", v.ChainHorizon)
	}
	if v.Witness == "" {
		t.Error("missing witness")
	}
}

// TestCapsolveJSONMatchesClassify: for every named scheme, capsolve
// -json without its chain fields is the /v1/classify body a node
// answers, field for field.
func TestCapsolveJSONMatchesClassify(t *testing.T) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, name := range coordattack.SchemeNames() {
		_, out, _ := runCmd(t, capsolve, "-scheme", name, "-json", "-horizon", "2")
		var got map[string]any
		if err := json.Unmarshal([]byte(out), &got); err != nil {
			t.Fatalf("%s: capsolve -json: %v\n%s", name, err, out)
		}
		for _, k := range []string{"chainFirstSolvableHorizon", "chainHorizonSearched", "chainError", "engineStats"} {
			delete(got, k)
		}
		resp, err := http.Post(ts.URL+"/v1/classify", "application/json", strings.NewReader(`{"scheme":"`+name+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		var want map[string]any
		err = json.NewDecoder(resp.Body).Decode(&want)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: /v1/classify = %d, %v", name, resp.StatusCode, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: capsolve -json %v, /v1/classify %v", name, got, want)
		}
	}
}

func TestCapsolveList(t *testing.T) {
	code, out, _ := runCmd(t, capsolve, "-list")
	if code != 0 || !strings.Contains(out, "AlmostFair") || !strings.Contains(out, "BX2") {
		t.Fatalf("list output:\n%s", out)
	}
}

func TestCapsolveErrors(t *testing.T) {
	if code, _, _ := runCmd(t, capsolve); code != 2 {
		t.Error("no args should be usage error")
	}
	if code, _, _ := runCmd(t, capsolve, "-scheme", "nope"); code != 1 {
		t.Error("unknown scheme")
	}
	if code, _, _ := runCmd(t, capsolve, "-expr", "[["); code != 1 {
		t.Error("bad expression")
	}
	if code, _, _ := runCmd(t, capsolve, "-scheme", "R1", "-minus", "((("); code != 1 {
		t.Error("bad minus literal")
	}
	// A double omission removed from a Γ-scheme is refused, not a panic.
	if code, _, errb := runCmd(t, capsolve, "-scheme", "S1", "-minus", "x(.)"); code != 1 || !strings.Contains(errb, "outside alphabet") {
		t.Errorf("off-alphabet minus: exit %d, stderr %q", code, errb)
	}
	if code, _, _ := runCmd(t, capsolve, "-bogusflag"); code != 2 {
		t.Error("bad flag")
	}
	// Σ-scheme: Theorem III.8 undecided, chain answers.
	code, out, _ := runCmd(t, capsolve, "-scheme", "BX1", "-horizon", "4")
	if code != 0 || !strings.Contains(out, "undecided by Theorem III.8") ||
		!strings.Contains(out, "bounded-round solvable from horizon 2") {
		t.Fatalf("BX1: %d\n%s", code, out)
	}
}

func TestCapsimScenario(t *testing.T) {
	code, out, _ := runCmd(t, capsim, "-scheme", "AlmostFair", "-scenario", "w.(.)", "-inputs", "0,1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if !strings.Contains(out, "consensus: true") {
		t.Errorf("output:\n%s", out)
	}
	// Concurrent runner and sampling paths.
	code, out, _ = runCmd(t, capsim, "-scheme", "C1", "-sample", "2", "-seed", "3", "-concurrent")
	if code != 0 || strings.Count(out, "consensus: true") != 2 {
		t.Fatalf("sampled run:\n%s", out)
	}
	// Verbose tracing.
	code, out, _ = runCmd(t, capsim, "-scheme", "AlmostFair", "-scenario", "bb.(.)", "-verbose")
	if code != 0 || !strings.Contains(out, "ind(w)=") {
		t.Fatalf("verbose run:\n%s", out)
	}
}

func TestCapsimErrors(t *testing.T) {
	if code, _, _ := runCmd(t, capsim, "-scheme", "nope"); code != 1 {
		t.Error("unknown scheme")
	}
	if code, _, _ := runCmd(t, capsim, "-scheme", "R1"); code != 1 {
		t.Error("obstruction cannot run")
	}
	if code, _, _ := runCmd(t, capsim, "-inputs", "zz"); code != 1 {
		t.Error("bad inputs")
	}
	if code, _, _ := runCmd(t, capsim, "-scenario", "((("); code != 1 {
		t.Error("bad scenario")
	}
	// Off-scheme scenario warns but runs (may time out).
	code, _, errb := runCmd(t, capsim, "-scheme", "AlmostFair", "-scenario", "(b)", "-max-rounds", "10")
	if code != 0 || !strings.Contains(errb, "not a member") {
		t.Error("off-scheme warning expected")
	}
}

func TestCapnetRuns(t *testing.T) {
	code, out, _ := runCmd(t, capnet, "-graph", "barbell", "-k", "3", "-bridges", "1", "-f", "0", "-adversary", "none")
	if code != 0 || !strings.Contains(out, "consensus: true") {
		t.Fatalf("barbell run: %d\n%s", code, out)
	}
	code, out, _ = runCmd(t, capnet, "-graph", "cycle", "-n", "5", "-f", "1", "-adversary", "targeted")
	if code != 0 || !strings.Contains(out, "solvable: true") {
		t.Fatalf("cycle run:\n%s", out)
	}
	// The cut adversary at f = c(G) breaks agreement.
	code, out, _ = runCmd(t, capnet, "-graph", "barbell", "-k", "3", "-bridges", "1", "-f", "1", "-adversary", "cut")
	if code != 0 || !strings.Contains(out, "consensus: false") {
		t.Fatalf("cut run:\n%s", out)
	}
	// Every named graph constructs.
	for _, kind := range []string{"path", "complete", "grid", "hypercube", "theta", "wheel", "star", "petersen", "tree", "random"} {
		if code, _, _ := runCmd(t, capnet, "-graph", kind, "-adversary", "none"); code != 0 {
			t.Errorf("graph %s failed", kind)
		}
	}
	// A theta graph has at least two paths, whatever -bridges says.
	if _, out, _ = runCmd(t, capnet, "-graph", "theta", "-adversary", "none"); !strings.Contains(out, "graph theta-2-3:") {
		t.Errorf("theta with -bridges 1:\n%s", out)
	}
	// Custom topology.
	code, out, _ = runCmd(t, capnet, "-graph", "custom", "-edges", "0-1,1-2,2-0", "-f", "1")
	if code != 0 || !strings.Contains(out, "c(G)=2") {
		t.Fatalf("custom run:\n%s", out)
	}
}

func TestCapnetErrors(t *testing.T) {
	if code, _, _ := runCmd(t, capnet, "-graph", "bogus"); code != 2 {
		t.Error("unknown graph")
	}
	if code, _, _ := runCmd(t, capnet, "-graph", "custom", "-edges", "zz"); code != 2 {
		t.Error("bad edges")
	}
	if code, _, _ := runCmd(t, capnet, "-graph", "cycle", "-adversary", "bogus"); code != 2 {
		t.Error("unknown adversary")
	}
	// Sizes out of range are refused before anything is allocated or
	// printed: a negative size, one past the selector's 64-vertex bound,
	// or a graph too small for consensus, with or without the engine
	// analysis.
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-graph", "cycle", "-n", "-1"}, "out of range"},
		{[]string{"-graph", "grid", "-w", "-2"}, "out of range"},
		{[]string{"-graph", "hypercube", "-d", "40"}, "out of range"},
		{[]string{"-graph", "complete", "-n", "100"}, "out of range"},
		{[]string{"-graph", "random", "-n", "100"}, "out of range"},
		{[]string{"-graph", "cycle", "-n", "0"}, "at least 2"},
		{[]string{"-graph", "cycle", "-n", "1", "-rounds", "2"}, "at least 2"},
	} {
		if code, out, errb := runCmd(t, capnet, tc.args...); code != 2 || out != "" || !strings.Contains(errb, tc.want) {
			t.Errorf("capnet %v: exit %d, stdout %q, stderr %q; want 2, no output and %q", tc.args, code, out, errb, tc.want)
		}
	}
}

func TestExperimentsCLI(t *testing.T) {
	code, out, _ := runCmd(t, capexp, "-list")
	if code != 0 || !strings.Contains(out, "fig1") || !strings.Contains(out, "nproc") {
		t.Fatalf("list:\n%s", out)
	}
	code, out, _ = runCmd(t, capexp, "-run", "fig1")
	if code != 0 || !strings.Contains(out, "ww    8") {
		t.Fatalf("fig1:\n%s", out)
	}
	if code, _, _ := runCmd(t, capexp, "-run", "zzz"); code != 1 {
		t.Error("unknown experiment")
	}
	if code, _, _ := runCmd(t, capexp); code != 2 {
		t.Error("no mode is usage error")
	}
}

func TestCapsolveExplainAndDot(t *testing.T) {
	code, out, _ := runCmd(t, capsolve, "-scheme", "C1", "-explain")
	if code != 0 || !strings.Contains(out, "SOLVABLE") || !strings.Contains(out, "fair scenario") {
		t.Fatalf("explain:\n%s", out)
	}
	code, out, _ = runCmd(t, capsolve, "-scheme", "S1", "-dot")
	if code != 0 || !strings.Contains(out, "digraph") || !strings.Contains(out, "doublecircle") {
		t.Fatalf("dot:\n%s", out)
	}
}

// TestCapsolveUnIndex covers the -unindex flag: valid inversions
// (including indices past int64 at r = 41), and out-of-range or
// malformed arguments erroring cleanly instead of panicking.
func TestCapsolveUnIndex(t *testing.T) {
	// ind("..") = 4 per Figure 1: k=4 at r=2 must invert to "..".
	code, out, _ := runCmd(t, capsolve, "-unindex", "2:4")
	if code != 0 || strings.TrimSpace(out) != ".." {
		t.Fatalf("2:4 → %d %q", code, out)
	}
	code, out, _ = runCmd(t, capsolve, "-unindex", "1:0")
	if code != 0 || strings.TrimSpace(out) != "b" {
		t.Fatalf("1:0 → %d %q", code, out)
	}
	// Beyond the int64-safe bound the big-integer inverse must kick in:
	// 3^41 - 1 is the maximal index at r = 41.
	code, out, _ = runCmd(t, capsolve, "-unindex", "41:36472996377170786402")
	if code != 0 || len(strings.TrimSpace(out)) != 41 {
		t.Fatalf("r=41 max: %d %q", code, out)
	}
	for _, bad := range []string{"2:9", "2:-1", "-1:0", "2", "x:1", "2:y"} {
		if code, _, errOut := runCmd(t, capsolve, "-unindex", bad); code != 1 || errOut == "" {
			t.Errorf("-unindex %q: exit %d, stderr %q; want clean error", bad, code, errOut)
		}
	}
}

func capchaos(args []string, out, errb *bytes.Buffer) int { return Capchaos(args, out, errb) }

func TestCapchaosCleanCampaign(t *testing.T) {
	code, out, _ := runCmd(t, capchaos, "-scheme", "S1", "-executions", "200", "-seed", "5")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	for _, want := range []string{"chaos campaign", "scheme=S1", "violations=0"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestCapchaosObstruction(t *testing.T) {
	code, _, errb := runCmd(t, capchaos, "-scheme", "R1")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errb, "obstruction") {
		t.Errorf("stderr should cite the obstruction: %s", errb)
	}
}

func TestCapchaosNetwork(t *testing.T) {
	code, out, _ := runCmd(t, capchaos, "-net", "-graph", "cycle", "-n", "5", "-executions", "50", "-seed", "3")
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "violations=0") {
		t.Errorf("campaign not clean:\n%s", out)
	}
	// Concurrent runner variant.
	code, out, _ = runCmd(t, capchaos, "-net", "-graph", "complete", "-n", "4", "-executions", "50", "-concurrent")
	if code != 0 || !strings.Contains(out, "violations=0") {
		t.Fatalf("concurrent: exit %d\n%s", code, out)
	}
}

func TestCapchaosErrors(t *testing.T) {
	if code, _, _ := runCmd(t, capchaos, "-scheme", "nope"); code != 1 {
		t.Fatalf("unknown scheme: exit %d, want 1", code)
	}
	if code, _, _ := runCmd(t, capchaos, "-net", "-graph", "nope"); code != 2 {
		t.Fatalf("unknown graph: exit %d, want 2", code)
	}
	if code, _, errb := runCmd(t, capchaos, "-net", "-graph", "cycle", "-n", "-1"); code != 2 || !strings.Contains(errb, "out of range") {
		t.Fatalf("negative size: exit %d stderr %q, want 2 and out of range", code, errb)
	}
	// A budget at the connectivity is refused, citing Theorem V.1.
	code, _, errb := runCmd(t, capchaos, "-net", "-graph", "cycle", "-n", "4", "-f", "2")
	if code != 1 || !strings.Contains(errb, "unsolvable") {
		t.Fatalf("over-budget: exit %d stderr %s", code, errb)
	}
}

// --- -timeout root contexts ------------------------------------------

// TestCapsolveTimeout: an already-expired budget aborts the bounded-round
// chain analysis instead of hanging, in both text and JSON mode.
func TestCapsolveTimeout(t *testing.T) {
	code, _, errb := runCmd(t, capsolve, "-scheme", "R1", "-horizon", "6", "-timeout", "1ns")
	if code != 1 || !strings.Contains(errb, "aborted") {
		t.Fatalf("exit %d stderr %q, want 1 + aborted", code, errb)
	}
	code, out, _ := runCmd(t, capsolve, "-scheme", "R1", "-horizon", "6", "-timeout", "1ns", "-json")
	if code != 1 || !strings.Contains(out, "chainError") {
		t.Fatalf("json: exit %d out %q, want 1 + chainError", code, out)
	}
	// Without -horizon the flag is inert: classification is pure automata
	// work and must still succeed.
	if code, _, _ := runCmd(t, capsolve, "-scheme", "S1", "-timeout", "1ns"); code != 0 {
		t.Fatalf("classification under expired budget: exit %d, want 0", code)
	}
}

func TestCapnetTimeout(t *testing.T) {
	code, _, errb := runCmd(t, capnet, "-graph", "cycle", "-n", "4", "-timeout", "1ns")
	if code != 1 || !strings.Contains(errb, "aborted") {
		t.Fatalf("exit %d stderr %q, want 1 + aborted", code, errb)
	}
	// A generous budget changes nothing about the verdict.
	code, out, _ := runCmd(t, capnet, "-graph", "cycle", "-n", "4", "-timeout", "1m")
	if code != 0 || !strings.Contains(out, "consensus: true") {
		t.Fatalf("budgeted run: exit %d\n%s", code, out)
	}
}

func TestCapchaosTimeout(t *testing.T) {
	code, out, errb := runCmd(t, capchaos, "-scheme", "S1", "-executions", "100000", "-timeout", "1ns")
	if code != 1 || !strings.Contains(errb, "aborted") {
		t.Fatalf("exit %d stderr %q, want 1 + aborted", code, errb)
	}
	// The partial report still surfaces what completed before the cut.
	if !strings.Contains(out, "executions=0") {
		t.Fatalf("partial report missing:\n%s", out)
	}
	code, _, errb = runCmd(t, capchaos, "-net", "-graph", "cycle", "-n", "4", "-executions", "100000", "-timeout", "1ns")
	if code != 1 || !strings.Contains(errb, "aborted") {
		t.Fatalf("net: exit %d stderr %q, want 1 + aborted", code, errb)
	}
}

func capserved(args []string, out, errb *bytes.Buffer) int { return Capserved(args, out, errb) }

func TestCapservedFlagErrors(t *testing.T) {
	if code, _, _ := runCmd(t, capserved, "-bogus"); code != 2 {
		t.Fatalf("bad flag: exit %d, want 2", code)
	}
	// A hopeless listen address fails fast with exit 1, not a hang.
	if code, _, errb := runCmd(t, capserved, "-addr", "256.256.256.256:1"); code != 1 || errb == "" {
		t.Fatalf("bad addr: exit %d, want 1 with error", code)
	}
}

// TestCapservedCacheRoleDefault: without -cache, a node's LRU holds
// 1024 verdicts and a coordinator's 4096. Boot preloads at most one
// LRU's worth of a warm store and rewrites the file to just those, so
// the records left in a 5000-record store show the size each role got;
// the unusable listen address ends the run right after boot.
func TestCapservedCacheRoleDefault(t *testing.T) {
	for _, tc := range []struct {
		role []string
		want int
	}{
		{nil, 1024},
		{[]string{"-coordinator", "-backends", "http://127.0.0.1:1", "-probe-interval", "0"}, 4096},
	} {
		path := filepath.Join(t.TempDir(), "warm.seg")
		seg := wire.AppendSegmentHeader(nil)
		for i := 0; i < 5000; i++ {
			seg = wire.AppendSegmentRecord(seg, fmt.Sprintf("classify|k%d", i), []byte(`{"scheme":"S1"}`))
		}
		if err := os.WriteFile(path, seg, 0o644); err != nil {
			t.Fatal(err)
		}
		args := append([]string{"-addr", "256.256.256.256:1", "-warm-store", path}, tc.role...)
		if code, _, errb := runCmd(t, capserved, args...); code != 1 {
			t.Fatalf("%v: exit %d, want 1 (bad addr): %s", tc.role, code, errb)
		}
		store, recs, err := serve.OpenVerdictStore(path)
		if err != nil {
			t.Fatal(err)
		}
		store.Close()
		if len(recs) != tc.want {
			t.Fatalf("%v: boot kept %d warm verdicts, want the role's default LRU size %d", tc.role, len(recs), tc.want)
		}
	}
}

// TestCapservedBreakerRoleDefault: without -breaker-trip or
// -breaker-cooldown, a coordinator's shard breakers take the
// coordinator's defaults, 3 failures and 5 s: three misses sent to a
// dead backend open its breaker, and the fourth is refused with
// Retry-After 5. With the node's 5 failures and 10 s, as the flags
// passed before, the fourth miss would still reach the dead backend.
func TestCapservedBreakerRoleDefault(t *testing.T) {
	srv, code := capservedServer([]string{"-coordinator", "-backends", "http://127.0.0.1:1", "-probe-interval", "0"}, io.Discard)
	if srv == nil {
		t.Fatalf("coordinator flags refused: exit %d", code)
	}
	defer srv.(*cluster.Coordinator).Shutdown(context.Background())
	for i := 1; i <= 4; i++ {
		rec := httptest.NewRecorder()
		body := fmt.Sprintf(`{"scheme":"S1","horizon":%d}`, i)
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solvable", strings.NewReader(body)))
		want := http.StatusBadGateway
		if i == 4 {
			want = http.StatusServiceUnavailable
		}
		if rec.Code != want {
			t.Fatalf("miss %d against a dead backend = %d, want %d: %s", i, rec.Code, want, rec.Body)
		}
		if i == 4 && rec.Header().Get("Retry-After") != "5" {
			t.Fatalf("open shard breaker: Retry-After %q, want 5 (the coordinator's cooldown)", rec.Header().Get("Retry-After"))
		}
	}
}

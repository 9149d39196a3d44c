package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	coordattack "repro"
	"repro/internal/serve/wire"
)

// The Theorem V.1 differential: a node on the default backend answers
// f ≥ c(G) and f < c(G), rounds ≥ n−1 without the engine, and a node
// that forces the enumerating backend runs the engine for every
// request. Both must serve the same verdict through every path.

// maxEngineCost bounds the cells the enumerating node is asked for:
// (loss patterns per round)^rounds. Past it the enumerating engine
// takes seconds and gigabytes (K4 minus an edge at f = 3, rounds = 3
// allocates more than 1.5 GB), so those cells are left out of the
// grid, on both nodes.
const maxEngineCost = 10_000

// engineCost is the size of the loss-pattern sequence space the
// enumerating engine walks for a graph with m edges at budget f over
// the given rounds.
func engineCost(m, f, rounds int) float64 {
	patterns := 0.0
	for k := 0; k <= f && k <= 2*m; k++ {
		patterns += binomial(2*m, k)
	}
	return math.Pow(patterns, float64(rounds))
}

func binomial(n, k int) float64 {
	b := 1.0
	for i := 0; i < k; i++ {
		b = b * float64(n-i) / float64(i+1)
	}
	return b
}

// netGridGraphs lists the differential's graphs as edge lists: every
// labelled connected graph on 2–4 vertices, and one graph per
// isomorphism class of the connected 5-vertex graphs with at most 6
// edges. A verdict depends on the graph only up to isomorphism, and
// the 552 labelled 5-vertex graphs would cost the enumerating node
// about a minute.
func netGridGraphs() []string {
	var out []string
	for n := 2; n <= 5; n++ {
		var pairs [][2]int
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				pairs = append(pairs, [2]int{u, v})
			}
		}
		seen := map[string]bool{}
		for mask := 1; mask < 1<<len(pairs); mask++ {
			var edges [][2]int
			for i, p := range pairs {
				if mask>>i&1 == 1 {
					edges = append(edges, p)
				}
			}
			if n == 5 && len(edges) > 6 {
				continue
			}
			spec := edgeSpec(edges)
			g, err := coordattack.ParseEdgeList("custom", spec)
			if err != nil || g.N() != n || !g.Connected() {
				continue
			}
			if n == 5 {
				canon := canonicalEdges(n, edges)
				if seen[canon] {
					continue
				}
				seen[canon] = true
			}
			out = append(out, spec)
		}
	}
	return out
}

func edgeSpec(edges [][2]int) string {
	parts := make([]string, len(edges))
	for i, e := range edges {
		parts[i] = fmt.Sprintf("%d-%d", e[0], e[1])
	}
	return strings.Join(parts, ",")
}

// canonicalEdges is the least edge spec over every relabelling of the
// n vertices: equal for isomorphic graphs.
func canonicalEdges(n int, edges [][2]int) string {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	best := ""
	var walk func(k int)
	walk = func(k int) {
		if k == n {
			adj := make([]bool, n*n)
			for _, e := range edges {
				a, b := perm[e[0]], perm[e[1]]
				adj[a*n+b], adj[b*n+a] = true, true
			}
			var sb strings.Builder
			for i := range adj {
				if adj[i] {
					sb.WriteByte('1')
				} else {
					sb.WriteByte('0')
				}
			}
			if s := sb.String(); best == "" || s < best {
				best = s
			}
			return
		}
		for i := k; i < n; i++ {
			perm[k], perm[i] = perm[i], perm[k]
			walk(k + 1)
			perm[k], perm[i] = perm[i], perm[k]
		}
	}
	walk(0)
	return best
}

// netPath is one way a node answers a network question.
type netPath struct {
	name, path, accept string
	batch              bool
}

var netPaths = []netPath{
	{"single JSON", "/v1/net/solvable", "", false},
	{"single frame", "/v1/net/solvable", wire.AcceptVerdict, false},
	{"batch JSON", "/v1/net/solve/batch", "", true},
	{"batch frame", "/v1/net/solve/batch", wire.AcceptVerdictStream, true},
}

// netAnswer asks h one network question through p. It returns the
// status, the verdict with its serving metadata zeroed (on a 200) and
// the error text (otherwise).
func netAnswer(t testing.TB, h http.Handler, p netPath, body string) (int, *wire.NetSolvable, string) {
	t.Helper()
	if p.batch {
		body = `{"items":[` + body + `]}`
	}
	req := httptest.NewRequest(http.MethodPost, p.path, strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if p.accept != "" {
		req.Header.Set("Accept", p.accept)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	raw := rec.Body.Bytes()
	if rec.Code != http.StatusOK {
		var e apiError
		json.Unmarshal(raw, &e)
		return rec.Code, nil, e.Error
	}
	v := new(wire.NetSolvable)
	status, errText := http.StatusOK, ""
	switch {
	case !p.batch && p.accept == "":
		if err := json.Unmarshal(raw, v); err != nil {
			t.Fatalf("%s: %v: %s", p.name, err, raw)
		}
	case !p.batch:
		if err := wire.UnmarshalInto(raw, v); err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
	case p.accept == "":
		var ln struct {
			Status  int             `json:"status"`
			Verdict json.RawMessage `json:"verdict"`
			Error   string          `json:"error"`
		}
		if err := json.Unmarshal(bytes.TrimSpace(raw), &ln); err != nil {
			t.Fatalf("%s: %v: %s", p.name, err, raw)
		}
		status, errText = ln.Status, ln.Error
		if status == http.StatusOK {
			if err := json.Unmarshal(ln.Verdict, v); err != nil {
				t.Fatalf("%s: %v: %s", p.name, err, raw)
			}
		}
	default:
		sc := wire.NewFrameScanner(bytes.NewReader(raw), 0)
		kind, payload, err := sc.Next()
		if err != nil || kind != wire.KindBatchLine {
			t.Fatalf("%s: frame kind %v: %v", p.name, kind, err)
		}
		ln, err := wire.DecodeBatchLine(payload)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		if _, _, err := sc.Next(); err != io.EOF {
			t.Fatalf("%s: more than one line for one item: %v", p.name, err)
		}
		status, errText = ln.Status, ln.Error
		if status == http.StatusOK {
			nv, ok := ln.Verdict.(*wire.NetSolvable)
			if !ok {
				t.Fatalf("%s: verdict %T", p.name, ln.Verdict)
			}
			v = nv
		}
	}
	if status != http.StatusOK {
		return status, nil, errText
	}
	normalizeVerdict(v)
	return status, v, ""
}

// TestNetTheoremMatchesEngine is the differential over the grid: every
// graph of netGridGraphs, f from 0 to c(G)+1 and rounds from 0 to n−1,
// through singles and batch items, in JSON and frames. The default node
// must run the engine exactly for f < c(G), rounds < n−1. Cells past
// maxEngineCost are left out; the test logs how many.
func TestNetTheoremMatchesEngine(t *testing.T) {
	auto := New(Config{})
	enum := New(Config{Backend: coordattack.BackendEnumerate})
	cells, skipped := 0, 0
	for _, spec := range netGridGraphs() {
		g, err := coordattack.ParseEdgeList("custom", spec)
		if err != nil {
			t.Fatal(err)
		}
		n, c := g.N(), g.EdgeConnectivity()
		for f := 0; f <= c+1; f++ {
			for r := 0; r < n; r++ {
				if engineCost(g.NumEdges(), f, r) > maxEngineCost {
					skipped++
					continue
				}
				body := fmt.Sprintf(`{"graph":"custom","edges":%q,"f":%d,"rounds":%d}`, spec, f, r)
				runs, decided := auto.engine.runs.Load(), auto.engine.theoremDecided.Load()
				var want *wire.NetSolvable
				for _, s := range []*Server{enum, auto} {
					// Rotate which path computes: the others read the cache.
					for k := range netPaths {
						p := netPaths[(cells+k)%len(netPaths)]
						status, v, msg := netAnswer(t, s.Handler(), p, body)
						if status != http.StatusOK {
							t.Fatalf("%s %s: %d %s", p.name, body, status, msg)
						}
						if want == nil {
							want = v
						} else if !reflect.DeepEqual(v, want) {
							t.Fatalf("%s %s (backend %v):\n got %+v\nwant %+v", p.name, body, s.cfg.Backend, v, want)
						}
					}
				}
				if (f >= c && want.Solvable) || (f < c && r >= n-1 && !want.Solvable) {
					t.Fatalf("%s: solvable=%v with c=%d contradicts Theorem V.1", body, want.Solvable, c)
				}
				engineCell, wantDecided := f < c && r < n-1, int64(1)
				if engineCell {
					wantDecided = 0
				}
				ran := auto.engine.runs.Load() > runs
				byTheorem := auto.engine.theoremDecided.Load() - decided
				if ran != engineCell || byTheorem != wantDecided {
					t.Fatalf("%s (c=%d): engine ran %v, theorem decided %d; want the engine only for f < c, rounds < n−1", body, c, ran, byTheorem)
				}
				cells++
			}
		}
	}
	if d := enum.engine.theoremDecided.Load(); d != 0 {
		t.Fatalf("the enumerating node counted %d theorem-decided verdicts, want 0", d)
	}
	t.Logf("%d cells compared, %d left out past cost %d", cells, skipped, maxEngineCost)
}

// FuzzNetTheoremVsEngine compares the default node's verdict with the
// enumerating node's on a random graph of at most 5 vertices and 6
// edges, connected or not, at a random f and horizon, through resolve,
// limit and compute.
func FuzzNetTheoremVsEngine(f *testing.F) {
	// mask bit i selects the i-th pair of (0,1), (0,2), …, (3,4).
	f.Add(uint32(0b10011), uint8(5), uint8(1), uint8(2))      // triangle at f < c, r = n−1
	f.Add(uint32(0b10010001), uint8(5), uint8(1), uint8(2))   // path-4: c = 1 = f
	f.Add(uint32(0b1010010001), uint8(5), uint8(0), uint8(4)) // path-5 at r = n−1
	f.Add(uint32(0b1000000001), uint8(5), uint8(0), uint8(1)) // two disjoint edges: c = 0
	f.Add(uint32(0b10010101), uint8(5), uint8(2), uint8(2))   // C4 at f = c
	auto := New(Config{})
	enum := New(Config{Backend: coordattack.BackendEnumerate})
	var pairs [][2]int
	for u := 0; u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			pairs = append(pairs, [2]int{u, v})
		}
	}
	f.Fuzz(func(t *testing.T, mask uint32, maxEdges, fb, rb uint8) {
		var edges [][2]int
		for i, p := range pairs {
			if mask>>i&1 == 1 && len(edges) < int(maxEdges%7) {
				edges = append(edges, p)
			}
		}
		if len(edges) == 0 {
			return
		}
		g, err := coordattack.ParseEdgeList("custom", edgeSpec(edges))
		if err != nil {
			t.Fatal(err)
		}
		budget, rounds := int(fb)%(g.EdgeConnectivity()+2), int(rb)%g.N()
		if engineCost(len(edges), budget, rounds) > maxEngineCost {
			return
		}
		body := fmt.Sprintf(`{"graph":"custom","edges":%q,"f":%d,"rounds":%d}`, edgeSpec(edges), budget, rounds)
		var got [2]any
		for i, s := range []*Server{auto, enum} {
			q, err := NetSolvable.Parse([]byte(body))
			if err == nil {
				err = s.limit(q)
			}
			if err != nil {
				t.Fatalf("%s: %v", body, err)
			}
			if got[i], _, err = s.compute(context.Background(), NetSolvable, q); err != nil {
				t.Fatalf("%s (backend %v): %v", body, s.cfg.Backend, err)
			}
		}
		if !reflect.DeepEqual(got[0], got[1]) {
			t.Fatalf("%s: default backend %+v, enumerating %+v", body, got[0], got[1])
		}
	})
}

// TestOversizedNetRequestIs400 pins that a graph past the engine's
// size bound is a request error on every path: BreakerThreshold+1
// oversized singles and an oversized batch item each answer 400 with
// one message, the breaker stays closed, and a heavy query still
// answers 200. Under the symbolic backend the bound is 26 directed
// edges, not 20.
func TestOversizedNetRequestIs400(t *testing.T) {
	s := New(Config{})
	h := s.Handler()
	const body = `{"graph":"complete","n":7,"f":1,"rounds":2}`
	var msg string
	for i := 0; i <= s.cfg.BreakerThreshold; i++ {
		status, _, m := netAnswer(t, h, netPaths[0], body)
		if status != http.StatusBadRequest || !strings.Contains(m, "too large") {
			t.Fatalf("oversized single %d = %d %q, want 400 naming the size bound", i, status, m)
		}
		msg = m
	}
	if status, _, m := netAnswer(t, h, netPaths[2], body); status != http.StatusBadRequest || m != msg {
		t.Fatalf("oversized batch item = %d %q, want 400 %q", status, m, msg)
	}
	if st := s.Varz().BreakerState; st != "closed" {
		t.Fatalf("breakerState = %q after oversized requests, want closed", st)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solvable", strings.NewReader(`{"scheme":"R1","horizon":3}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("R1 after oversized requests = %d: %s", rec.Code, rec.Body)
	}

	// K6 minus two edges: 13 edges, 26 directed.
	const k6less2 = `{"graph":"custom","edges":"0-1,0-2,0-3,0-4,0-5,1-2,1-3,1-4,1-5,2-3,2-4,3-5,4-5","f":1,"rounds":1}`
	if status, _, m := netAnswer(t, h, netPaths[0], k6less2); status != http.StatusBadRequest || m != msg {
		t.Fatalf("26 directed edges on the default backend = %d %q, want 400 %q", status, m, msg)
	}
	sym := New(Config{Backend: coordattack.BackendSymbolic})
	if status, _, m := netAnswer(t, sym.Handler(), netPaths[0], k6less2); status != http.StatusOK {
		t.Fatalf("26 directed edges on the symbolic backend = %d %q, want 200", status, m)
	}
}

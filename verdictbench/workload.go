package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	ca "repro"
	"repro/internal/serve"
)

// qkind is the question one verdict answers.
type qkind int

const (
	qClassify qkind = iota // Theorem III.8 classification
	qFixed                 // solvable at a fixed horizon
	qMin                   // smallest solvable horizon ≤ a cap (MinRounds)
	qNet                   // network solvability on a graph (Theorem V.1)
)

// query is one verdict question: a scheme (a registry name, optionally
// minus one ultimately periodic scenario) or a custom graph.
type query struct {
	kind  qkind
	base  string // registry scheme name
	minus string // canonical scenario removed from base ("" for none)
	h     int    // horizon (qFixed), cap (qMin) or rounds (qNet)
	edges string // sorted edge list of a custom graph (qNet)
	f     int    // per-round loss budget (qNet)
}

// key names the question; equal keys ask the server the same thing.
func (q query) key() string {
	if q.kind == qNet {
		return fmt.Sprintf("net|%s|f=%d|r=%d", q.edges, q.f, q.h)
	}
	return fmt.Sprintf("%d|%s|%s|h=%d", q.kind, q.base, q.minus, q.h)
}

// scheme compiles the query's scheme afresh, bypassing every memo.
func (q query) scheme() (*ca.Scheme, error) {
	sch, err := ca.SchemeByName(q.base)
	if err != nil || q.minus == "" {
		return sch, err
	}
	sc, err := ca.ParseScenario(q.minus)
	if err != nil {
		return nil, err
	}
	return ca.MinusScenarios(sch.Name()+"-custom", sch, sc), nil
}

func (q query) schemeSelector() serve.SchemeSelector {
	sel := serve.SchemeSelector{Scheme: q.base}
	if q.minus != "" {
		sel.Minus = []string{q.minus}
	}
	return sel
}

func (q query) graphSelector() serve.GraphSelector {
	return serve.GraphSelector{Graph: "custom", Edges: q.edges}
}

// request is the JSON body the query travels as (alone or as a batch item).
func (q query) request() any {
	switch q.kind {
	case qClassify:
		return q.schemeSelector()
	case qNet:
		return struct {
			serve.GraphSelector
			F      int `json:"f"`
			Rounds int `json:"rounds"`
		}{q.graphSelector(), q.f, q.h}
	}
	r := struct {
		serve.SchemeSelector
		Horizon    int  `json:"horizon,omitempty"`
		MinRounds  bool `json:"minRounds,omitempty"`
		MaxHorizon int  `json:"maxHorizon,omitempty"`
	}{SchemeSelector: q.schemeSelector()}
	if q.kind == qMin {
		r.MinRounds, r.MaxHorizon = true, q.h
	} else {
		r.Horizon = q.h
	}
	return r
}

var singlePath = map[qkind]string{
	qClassify: "/v1/classify",
	qFixed:    "/v1/solvable",
	qMin:      "/v1/solvable",
	qNet:      "/v1/net/solvable",
}

// call is one HTTP request of a workload: a single query or a batch.
type call struct {
	path   string
	body   []byte
	binary bool // Accept binary verdict frames
	batch  bool
	items  []query
}

// bodies marshals request bodies; a workload with a fixed working set
// memoizes them so the client spends no time re-encoding hot queries.
type bodies map[string][]byte

func (b bodies) of(q query) []byte {
	if b == nil {
		return mustJSON(q.request())
	}
	k := q.key()
	body, ok := b[k]
	if !ok {
		body = mustJSON(q.request())
		b[k] = body
	}
	return body
}

func (b bodies) single(q query, binary bool) *call {
	return &call{path: singlePath[q.kind], body: b.of(q), binary: binary, items: []query{q}}
}

// solveBatch builds a /v1/solve/batch call over fixed/MinRounds queries.
func (b bodies) solveBatch(items []query, binary bool) *call {
	body := append(make([]byte, 0, 64*len(items)), `{"items":[`...)
	for i, q := range items {
		if i > 0 {
			body = append(body, ',')
		}
		body = append(body, b.of(q)...)
	}
	body = append(body, "]}"...)
	return &call{path: "/v1/solve/batch", body: body, binary: binary, batch: true, items: items}
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types above always marshal
	}
	return b
}

// workload is one traffic mix.
type workload struct {
	name string
	why  string
	// openRate, when > 0, drives an open loop at this many calls per
	// second; otherwise nproc closed-loop workers send back to back.
	openRate float64
	// cluster boots a coordinator over clusterBackends nodes instead of
	// one node; warmStore turns the node's persistent warm tier on.
	cluster   bool
	warmStore bool
	// hitShare is the share of items that repeat a warmed key (cluster
	// coordinator hits); the validity check holds the run to it.
	hitShare float64
	// warm lists the queries setup sends once, before the window: the
	// hot set everywhere, so every set-up primes the same layers, plus
	// the workload's own shapes.
	warm func() []query
	// gen builds the seeded call stream of the timed window.
	gen func(seed int64) func() *call
}

const clusterBackends = 3

var workloads = []*workload{
	{
		name: "hot-reads",
		why:  "one warmed node, every request a cache hit: decode, resolve, LRU, encode and write do all the work and the engine none",
		warm: hotSet,
		gen:  hotReads,
	},
	{
		name:      "miss-writes",
		why:       "every request names a new Gamma-minus automaton: compile, key, classify and the LRU and warm-store inserts, served symbolically",
		warmStore: true,
		warm:      baseWarm,
		gen:       missWrites,
	},
	{
		name: "enum-heavy",
		why:  "unique S2-minus automata at horizons 6-7 and unique small graphs: nearly all time is in the enumerating fullinfo engine",
		warm: enumWarm,
		gen:  enumHeavy,
	},
	{
		name:     "cluster-mixed",
		why:      "open loop through a coordinator over 3 nodes: ring pick, shard round trip, per-item batch fan-out and frame/JSON transcode",
		openRate: clusterRate,
		cluster:  true,
		hitShare: clusterHitShare,
		warm:     hotSet,
		gen:      clusterMixed,
	},
}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// gammaNamed are the registry schemes over Γ (no double omission), the
// domain where Theorem III.8 decides solvability exactly.
var gammaNamed = []string{"S0", "TW", "TB", "C1", "S1", "R1", "Fair", "AlmostFair", "K1", "K2", "K3"}

// hotGraphs are the small named topologies of the hot working set.
var hotGraphs = []string{
	"0-1,1-2",             // path P3
	"0-1,0-3,1-2,2-3",     // cycle C4
	"0-1,0-2,0-3",         // star K1,3
	"0-1,0-2,0-3,1-2,2-3", // diamond
	"0-1,0-2,0-3,1-2,1-3,2-3",
}

// hotSet is the hot working set: classify, fixed horizons 2-5 and a
// MinRounds search over every Γ scheme, plus the small graphs — 76
// keys, far below the default 1024-entry LRU.
func hotSet() []query {
	var qs []query
	for _, name := range gammaNamed {
		qs = append(qs, query{kind: qClassify, base: name})
		for h := 2; h <= 5; h++ {
			qs = append(qs, query{kind: qFixed, base: name, h: h})
		}
		qs = append(qs, query{kind: qMin, base: name, h: 6})
	}
	for _, e := range hotGraphs {
		qs = append(qs, query{kind: qNet, edges: e, f: 1, h: 2})
	}
	return qs
}

// slots is a fixed mix: weights expanded into one evenly interleaved
// cycle, so every seed sends exactly the same proportions of each kind
// and only the content of a slot is random.
type slots struct {
	seq []int
	i   int
}

func newSlots(weights ...int) *slots {
	total := 0
	for _, w := range weights {
		total += w
	}
	used := make([]int, len(weights))
	s := &slots{}
	for i := 1; i <= total; i++ {
		best, lag := 0, -1.0
		for k, w := range weights {
			if l := float64(w*i)/float64(total) - float64(used[k]); l > lag {
				best, lag = k, l
			}
		}
		used[best]++
		s.seq = append(s.seq, best)
	}
	return s
}

func (s *slots) next() int {
	k := s.seq[s.i%len(s.seq)]
	s.i++
	return k
}

func byKind(qs []query) map[qkind][]query {
	m := map[qkind][]query{}
	for _, q := range qs {
		m[q.kind] = append(m[q.kind], q)
	}
	return m
}

// hotReads: singles of every kind and batches of 16 over the hot set,
// half of them asking for frames.
func hotReads(seed int64) func() *call {
	rng := rand.New(rand.NewSource(seed))
	set := byKind(hotSet())
	solves := append(append([]query(nil), set[qFixed]...), set[qMin]...)
	kinds := []qkind{qClassify, qFixed, qMin, qNet}
	mix := newSlots(20, 25, 20, 20, 15)
	memo := bodies{}
	return func() *call {
		binary := rng.Intn(2) == 0
		i := mix.next()
		if i == len(kinds) {
			items := make([]query, 16)
			for j := range items {
				items[j] = solves[rng.Intn(len(solves))]
			}
			return memo.solveBatch(items, binary)
		}
		qs := set[kinds[i]]
		return memo.single(qs[rng.Intn(len(qs))], binary)
	}
}

// scenarioDraw draws fresh ultimately periodic scenarios a base scheme
// contains, never repeating one: a scheme minus a scenario it contains
// is a new language, so every draw is an automaton no request named
// before.
type scenarioDraw struct {
	rng  *rand.Rand
	seen map[string]bool
	dry  map[string]bool // bases whose draws stopped finding new scenarios
	sch  map[string]*ca.Scheme
}

func newScenarioDraw(rng *rand.Rand) *scenarioDraw {
	return &scenarioDraw{rng: rng, seen: map[string]bool{}, dry: map[string]bool{}, sch: map[string]*ca.Scheme{}}
}

func (d *scenarioDraw) word(n int, letters string) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = letters[d.rng.Intn(len(letters))]
	}
	return string(b)
}

// shape draws a candidate spelling for base.
func (d *scenarioDraw) shape(base string) string {
	switch base {
	case "S1": // one direction only
		letters := ".w"
		if d.rng.Intn(2) == 0 {
			letters = ".b"
		}
		return d.word(d.rng.Intn(13), letters) + "(" + d.word(1+d.rng.Intn(4), letters) + ")"
	case "K2": // at most two losses, then silence
		w := []byte(d.word(1+d.rng.Intn(10), "."))
		for k := d.rng.Intn(3); k > 0; k-- {
			w[d.rng.Intn(len(w))] = "wb"[d.rng.Intn(2)]
		}
		return string(w) + "(.)"
	case "S2":
		return d.word(d.rng.Intn(6), ".wbx") + "(" + d.word(1+d.rng.Intn(3), ".wbx") + ")"
	}
	return d.word(d.rng.Intn(9), ".wb") + "(" + d.word(1+d.rng.Intn(4), ".wb") + ")"
}

// next returns a canonical scenario of base never drawn before, or ""
// once 64 candidates in a row were used or outside base.
func (d *scenarioDraw) next(base string) string {
	if d.dry[base] {
		return ""
	}
	sch := d.sch[base]
	if sch == nil {
		var err error
		if sch, err = ca.SchemeByName(base); err != nil {
			panic(err) // bases are registry constants
		}
		d.sch[base] = sch
	}
	for try := 0; try < 64; try++ {
		sc, err := ca.ParseScenario(d.shape(base))
		if err != nil || !sch.Contains(sc) {
			continue
		}
		s := sc.Canonical().String()
		if k := base + "|" + s; !d.seen[k] {
			d.seen[k] = true
			return s
		}
	}
	d.dry[base] = true
	return ""
}

// missBases are the Γ bases miss-writes removes scenarios from, with
// the share of items each base gets.
var (
	missBases   = []string{"R1", "Fair", "AlmostFair", "K2", "S1"}
	missWeights = []int{30, 25, 25, 5, 15}
)

// missMaxHorizon bounds miss-writes horizons: deep enough for real
// symbolic work, shallow enough that no automaton falls back to
// enumeration.
const missMaxHorizon = 8

// baseWarm warms a miss-writes node with the hot set and the plain
// bases, whose keys no window request repeats.
func baseWarm() []query {
	qs := hotSet()
	for _, b := range missBases {
		qs = append(qs, query{kind: qMin, base: b, h: missMaxHorizon})
	}
	return qs
}

// gammaDraw draws queries over new Γ-minus automata, bases in the fixed
// missWeights mix.
type gammaDraw struct {
	rng   *rand.Rand
	d     *scenarioDraw
	bases *slots
}

func newGammaDraw(rng *rand.Rand) *gammaDraw {
	return &gammaDraw{rng: rng, d: newScenarioDraw(rng), bases: newSlots(missWeights...)}
}

// next draws a query of kind at a horizon in 1..maxH (the cap itself for
// MinRounds).
func (g *gammaDraw) next(kind qkind, maxH int) query {
	base := missBases[g.bases.next()]
	minus := g.d.next(base)
	if minus == "" {
		base = "R1" // a small base ran dry; R1 has millions left
		minus = g.d.next(base)
	}
	q := query{kind: kind, base: base, minus: minus, h: 1 + g.rng.Intn(maxH)}
	if kind == qMin {
		q.h = maxH
	}
	return q
}

// missWrites: classify, fixed and MinRounds singles and batches of 16,
// every item a new automaton.
func missWrites(seed int64) func() *call {
	rng := rand.New(rand.NewSource(seed))
	g := newGammaDraw(rng)
	// Classify costs ten times a symbolic solve; one classify per two of
	// each solve keeps the single-call median inside the solves' mass.
	mix, solves := newSlots(1, 2, 2, 2), newSlots(1, 1)
	kinds := []qkind{qClassify, qFixed, qMin}
	return func() *call {
		binary := rng.Intn(2) == 0
		var b bodies
		if i := mix.next(); i < len(kinds) {
			return b.single(g.next(kinds[i], missMaxHorizon), binary)
		}
		items := make([]query, 16)
		for i := range items {
			items[i] = g.next(kinds[1+solves.next()], missMaxHorizon)
		}
		return b.solveBatch(items, binary)
	}
}

// graphDraw draws connected labelled graphs never drawn before.
type graphDraw struct {
	rng  *rand.Rand
	seen map[string]bool
}

// next returns the sorted edge list of a fresh connected graph on n
// vertices with exactly m edges (n-1 ≤ m ≤ n(n-1)/2), or "" after 64
// repeats in a row.
func (g *graphDraw) next(n, m int) string {
	for try := 0; try < 64; try++ {
		edges := map[[2]int]bool{}
		perm := g.rng.Perm(n)
		for i := 1; i < n; i++ { // random spanning tree on a random labelling
			a, b := perm[i], perm[g.rng.Intn(i)]
			edges[[2]int{min(a, b), max(a, b)}] = true
		}
		for len(edges) < m {
			if a, b := g.rng.Intn(n), g.rng.Intn(n); a != b {
				edges[[2]int{min(a, b), max(a, b)}] = true
			}
		}
		list := make([]string, 0, len(edges))
		for e := range edges {
			list = append(list, fmt.Sprintf("%d-%d", e[0], e[1]))
		}
		sort.Strings(list)
		s := strings.Join(list, ",")
		if !g.seen[s] {
			g.seen[s] = true
			return s
		}
	}
	return ""
}

// netShapes are the enum-heavy graph shapes in rotation: trees on four
// vertices at three rounds (16 exist; when they run out the slot takes
// the last shape), and one-cycle graphs on five and six vertices at two.
var netShapes = []struct{ n, m, rounds int }{{4, 3, 3}, {5, 5, 2}, {6, 6, 2}}

// enumWarm is the hot set plus each engine shape once, on keys the
// window never repeats.
func enumWarm() []query {
	return append(hotSet(),
		query{kind: qFixed, base: "S2", h: 6},
		query{kind: qMin, base: "S2", h: 6},
		query{kind: qNet, edges: "0-1,1-2,2-3", f: 1, h: 2})
}

// enumHeavy: unique S2-minus automata (Σ alphabet, so never symbolic)
// at horizons 6-7, fixed and MinRounds, unique graphs, and batches of
// four horizon-6 automata.
func enumHeavy(seed int64) func() *call {
	rng := rand.New(rand.NewSource(seed))
	d := newScenarioDraw(rng)
	g := &graphDraw{rng: rng, seen: map[string]bool{}}
	mix, horizons, shapes := newSlots(7, 7, 3, 3), newSlots(2, 1), newSlots(1, 1, 1)
	s2 := func(kind qkind, h int) query { return query{kind: kind, base: "S2", minus: d.next("S2"), h: h} }
	net := func() query {
		sh := netShapes[shapes.next()]
		e := g.next(sh.n, sh.m)
		if e == "" {
			sh = netShapes[len(netShapes)-1]
			e = g.next(sh.n, sh.m)
		}
		return query{kind: qNet, edges: e, f: 1, h: sh.rounds}
	}
	return func() *call {
		binary := rng.Intn(2) == 0
		var b bodies
		switch mix.next() {
		case 0:
			return b.single(s2(qFixed, 6+horizons.next()), binary)
		case 1:
			return b.single(s2(qMin, 6+horizons.next()), binary)
		case 2:
			return b.single(net(), binary)
		}
		return b.solveBatch([]query{s2(qFixed, 6), s2(qMin, 6), s2(qFixed, 6), s2(qMin, 6)}, binary)
	}
}

// Cluster-mixed sizing: the open-loop rate in calls per second and the
// share of items that repeat a warmed key.
const (
	clusterRate     = 600
	clusterHitShare = 0.8
)

// clusterMixed: singles and batches of 16 through the coordinator;
// four items in five repeat a warmed hot key, the fifth is a new cheap
// (symbolic) Γ-minus automaton.
func clusterMixed(seed int64) func() *call {
	rng := rand.New(rand.NewSource(seed))
	g := newGammaDraw(rng)
	hot := hotSet()
	var hotSolves []query
	for _, q := range hot {
		if q.kind == qFixed || q.kind == qMin {
			hotSolves = append(hotSolves, q)
		}
	}
	mix, fresh := newSlots(7, 3), newSlots(4, 1)
	item := func(pool []query) query {
		if fresh.next() == 0 {
			return pool[rng.Intn(len(pool))]
		}
		return g.next(qFixed, 6)
	}
	memo := bodies{}
	return func() *call {
		binary := rng.Intn(2) == 0
		if mix.next() == 0 {
			return memo.single(item(hot), binary)
		}
		items := make([]query, 16)
		for i := range items {
			items[i] = item(hotSolves)
		}
		return memo.solveBatch(items, binary)
	}
}

package netsim

// The four runners as they were before they were folded into one round
// loop (plain sequential, hardened sequential and the goroutine/CSP pair),
// with their node servers, kept verbatim apart from the ref prefix on
// their names. They are the references the one loop is differentially
// tested against; this is the only place they exist.

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"context"
	"fmt"
	"runtime/debug"

	"repro/internal/graph"
	"repro/internal/sim"
)

// refRun executes the nodes on the graph under the adversary for at most
// maxRounds rounds.
func refRun(g *graph.Graph, nodes []Node, inputs []Value, adv Adversary, maxRounds int) Trace {
	n := g.N()
	if len(nodes) != n || len(inputs) != n {
		panic("netsim: nodes/inputs length mismatch")
	}
	for i, node := range nodes {
		node.Init(i, g, inputs[i])
	}
	tr := Trace{
		Inputs:        append([]Value(nil), inputs...),
		Decisions:     make([]Value, n),
		DecisionRound: make([]int, n),
	}
	for i := range tr.Decisions {
		tr.Decisions[i] = sim.None
		tr.DecisionRound[i] = -1
	}
	record := func(round int) bool {
		all := true
		for i, node := range nodes {
			if tr.DecisionRound[i] < 0 {
				if v, ok := node.Decision(); ok {
					tr.Decisions[i] = v
					tr.DecisionRound[i] = round
				} else {
					all = false
				}
			}
		}
		return all
	}
	if record(0) {
		return tr
	}
	for r := 1; r <= maxRounds; r++ {
		tr.Rounds = r
		drops := adv.Drops(r, g)
		if len(drops) > tr.MaxDropsPerRound {
			tr.MaxDropsPerRound = len(drops)
		}
		tr.TotalDrops += len(drops)

		outgoing := make([]map[int]Message, n)
		for i, node := range nodes {
			outgoing[i] = node.Send(r)
		}
		incoming := make([]map[int]Message, n)
		for i := range incoming {
			incoming[i] = map[int]Message{}
		}
		for from, msgs := range outgoing {
			for to, m := range msgs {
				if m == nil || !g.HasEdge(from, to) {
					continue
				}
				if drops[graph.DirEdge{From: from, To: to}] {
					continue
				}
				incoming[to][from] = m
			}
		}
		for i, node := range nodes {
			node.Receive(r, incoming[i])
		}
		if record(r) {
			return tr
		}
	}
	tr.TimedOut = true
	return tr
}

// refRunHardened is the sequential runner with the fail-closed guarantees of
// RunGoroutinesHardened: a panicking node is crash-stopped with a
// diagnostic instead of killing the process, and the context bounds the
// run's wall-clock time (checked at every round boundary).
func refRunHardened(ctx context.Context, g *graph.Graph, nodes []Node, inputs []Value, adv Adversary, maxRounds int) HardenedTrace {
	n := g.N()
	if len(nodes) != n || len(inputs) != n {
		panic("netsim: nodes/inputs length mismatch")
	}
	ht := HardenedTrace{Trace: Trace{
		Inputs:        append([]Value(nil), inputs...),
		Decisions:     make([]Value, n),
		DecisionRound: make([]int, n),
	}}
	for i := range ht.Decisions {
		ht.Decisions[i] = -1
		ht.DecisionRound[i] = -1
	}
	crashed := make([]bool, n)
	crash := func(i, round int, err error) {
		if crashed[i] {
			return
		}
		crashed[i] = true
		ht.Crashes = append(ht.Crashes, NodeCrash{Node: i, Round: round, Op: refOpOf(err), Diag: err.Error()})
	}

	for i, node := range nodes {
		var err error
		func() {
			defer refRecoverDiag("Init", 0, &err)
			node.Init(i, g, inputs[i])
		}()
		if err != nil {
			crash(i, 0, err)
		}
	}

	record := func(round int) bool {
		all := true
		for i, node := range nodes {
			if crashed[i] {
				continue
			}
			if ht.DecisionRound[i] < 0 {
				v, ok, err := refSafeDecision(node, round)
				if err != nil {
					crash(i, round, err)
					continue
				}
				if ok {
					ht.Decisions[i] = v
					ht.DecisionRound[i] = round
				} else {
					all = false
				}
			}
		}
		return all
	}
	if record(0) {
		return ht
	}
	for r := 1; r <= maxRounds; r++ {
		if err := ctx.Err(); err != nil {
			ht.Interrupted = true
			ht.Err = err
			ht.TimedOut = true
			return ht
		}
		ht.Rounds = r
		drops := adv.Drops(r, g)
		if len(drops) > ht.MaxDropsPerRound {
			ht.MaxDropsPerRound = len(drops)
		}
		ht.TotalDrops += len(drops)

		outgoing := make([]map[int]Message, n)
		for i, node := range nodes {
			if crashed[i] {
				continue
			}
			msgs, err := refSafeSend(node, r)
			if err != nil {
				crash(i, r, err)
				continue
			}
			outgoing[i] = msgs
		}
		incoming := make([]map[int]Message, n)
		for i := range incoming {
			incoming[i] = map[int]Message{}
		}
		for from, msgs := range outgoing {
			for to, m := range msgs {
				if m == nil || !g.HasEdge(from, to) {
					continue
				}
				if drops[graph.DirEdge{From: from, To: to}] {
					continue
				}
				incoming[to][from] = m
			}
		}
		for i, node := range nodes {
			if crashed[i] {
				continue
			}
			if err := refSafeReceive(node, r, incoming[i]); err != nil {
				crash(i, r, err)
			}
		}
		if record(r) {
			return ht
		}
	}
	ht.TimedOut = true
	return ht
}

type refNodeSendResp struct {
	msgs map[int]Message
	err  error
}

type refNodeRecvReq struct {
	round int
	msgs  map[int]Message
}

type refNodeRecvResp struct {
	decided bool
	value   Value
	err     error
}

type refNodeServer struct {
	sendReq  chan int
	sendResp chan refNodeSendResp
	recvReq  chan refNodeRecvReq
	recvResp chan refNodeRecvResp
}

func refNewNodeServer() *refNodeServer {
	// Responses are buffered so a server that finishes its round after the
	// coordinator abandoned the run never blocks on delivery.
	return &refNodeServer{
		sendReq:  make(chan int),
		sendResp: make(chan refNodeSendResp, 1),
		recvReq:  make(chan refNodeRecvReq, 1),
		recvResp: make(chan refNodeRecvResp, 1),
	}
}

func refRecoverDiag(op string, round int, errp *error) {
	if p := recover(); p != nil {
		*errp = fmt.Errorf("%s panicked at round %d: %v\n%s", op, round, p, debug.Stack())
	}
}

func refSafeSend(n Node, r int) (msgs map[int]Message, err error) {
	defer refRecoverDiag("Send", r, &err)
	return n.Send(r), nil
}

func refSafeReceive(n Node, r int, msgs map[int]Message) (err error) {
	defer refRecoverDiag("Receive", r, &err)
	n.Receive(r, msgs)
	return nil
}

func refSafeDecision(n Node, r int) (v Value, ok bool, err error) {
	defer refRecoverDiag("Decision", r, &err)
	v, ok = n.Decision()
	return v, ok, nil
}

// refServeNode is the per-node server loop. Once the node panics it is
// crash-stopped: the server keeps answering the round protocol (with
// empty sends and frozen decisions) but never touches the node again.
func refServeNode(n Node, s *refNodeServer, stop <-chan struct{}) {
	crashed := false
	for {
		var r int
		select {
		case r = <-s.sendReq:
		case <-stop:
			return
		}
		var sr refNodeSendResp
		if !crashed {
			sr.msgs, sr.err = refSafeSend(n, r)
			if sr.err != nil {
				crashed = true
				sr.msgs = nil
			}
		}
		select {
		case s.sendResp <- sr:
		case <-stop:
			return
		}
		var req refNodeRecvReq
		select {
		case req = <-s.recvReq:
		case <-stop:
			return
		}
		var rr refNodeRecvResp
		if !crashed {
			if err := refSafeReceive(n, req.round, req.msgs); err != nil {
				crashed = true
				rr.err = err
			} else if v, ok, err := refSafeDecision(n, req.round); err != nil {
				crashed = true
				rr.err = err
			} else {
				rr.value, rr.decided = v, ok
			}
		}
		select {
		case s.recvResp <- rr:
		case <-stop:
			return
		}
	}
}

// refRunGoroutines executes the same semantics as Run with one goroutine per
// node. Node panics crash-stop the offending node (diagnostics are
// available through RunGoroutinesHardened); the process never dies.
func refRunGoroutines(g *graph.Graph, nodes []Node, inputs []Value, adv Adversary, maxRounds int) Trace {
	return refRunGoroutinesHardened(context.Background(), g, nodes, inputs, adv, maxRounds).Trace
}

// refRunGoroutinesHardened is the fully hardened goroutine runner: panic
// isolation per node, context-based cancellation and deadlines, and
// guaranteed release of all server goroutines on every exit path.
func refRunGoroutinesHardened(ctx context.Context, g *graph.Graph, nodes []Node, inputs []Value, adv Adversary, maxRounds int) HardenedTrace {
	n := g.N()
	if len(nodes) != n || len(inputs) != n {
		panic("netsim: nodes/inputs length mismatch")
	}
	ht := HardenedTrace{Trace: Trace{
		Inputs:        append([]Value(nil), inputs...),
		Decisions:     make([]Value, n),
		DecisionRound: make([]int, n),
	}}
	for i := range ht.Decisions {
		ht.Decisions[i] = -1
		ht.DecisionRound[i] = -1
	}
	crashed := make([]bool, n)
	crash := func(i, round int, err error) {
		if crashed[i] {
			return
		}
		crashed[i] = true
		ht.Crashes = append(ht.Crashes, NodeCrash{Node: i, Round: round, Op: refOpOf(err), Diag: err.Error()})
	}

	// Init runs on the coordinator (servers not yet started) under the
	// same panic isolation.
	for i, node := range nodes {
		var err error
		func() {
			defer refRecoverDiag("Init", 0, &err)
			node.Init(i, g, inputs[i])
		}()
		if err != nil {
			crash(i, 0, err)
		}
	}

	stop := make(chan struct{})
	defer close(stop)
	servers := make([]*refNodeServer, n)
	for i, node := range nodes {
		servers[i] = refNewNodeServer()
		if !crashed[i] {
			go refServeNode(node, servers[i], stop)
		} else {
			go refServeNode(refCrashedNode{}, servers[i], stop)
		}
	}

	interrupt := func(err error) HardenedTrace {
		ht.Interrupted = true
		ht.Err = err
		ht.TimedOut = true
		return ht
	}

	// Round-0 decisions are read from the trace state: an undecided,
	// uncrashed node keeps the run going.
	record := func(round int, decided []refNodeRecvResp) bool {
		all := true
		for i := range nodes {
			if crashed[i] {
				continue
			}
			if ht.DecisionRound[i] < 0 {
				if decided[i].decided {
					ht.Decisions[i] = decided[i].value
					ht.DecisionRound[i] = round
				} else {
					all = false
				}
			}
		}
		return all
	}

	// Round-0 decisions are read directly (servers idle between rounds).
	zero := make([]refNodeRecvResp, n)
	for i, node := range nodes {
		if crashed[i] {
			continue
		}
		v, ok, err := refSafeDecision(node, 0)
		if err != nil {
			crash(i, 0, err)
			continue
		}
		zero[i] = refNodeRecvResp{decided: ok, value: v}
	}
	if record(0, zero) {
		return ht
	}

	for r := 1; r <= maxRounds; r++ {
		if err := ctx.Err(); err != nil {
			return interrupt(err)
		}
		ht.Rounds = r
		drops := adv.Drops(r, g)
		if len(drops) > ht.MaxDropsPerRound {
			ht.MaxDropsPerRound = len(drops)
		}
		ht.TotalDrops += len(drops)

		for _, s := range servers {
			select {
			case s.sendReq <- r:
			case <-ctx.Done():
				return interrupt(ctx.Err())
			}
		}
		outgoing := make([]map[int]Message, n)
		for i, s := range servers {
			select {
			case resp := <-s.sendResp:
				if resp.err != nil {
					crash(i, r, resp.err)
				}
				outgoing[i] = resp.msgs
			case <-ctx.Done():
				return interrupt(ctx.Err())
			}
		}
		incoming := make([]map[int]Message, n)
		for i := range incoming {
			incoming[i] = map[int]Message{}
		}
		for from, msgs := range outgoing {
			for to, m := range msgs {
				if m == nil || !g.HasEdge(from, to) || drops[graph.DirEdge{From: from, To: to}] {
					continue
				}
				incoming[to][from] = m
			}
		}
		for i, s := range servers {
			select {
			case s.recvReq <- refNodeRecvReq{round: r, msgs: incoming[i]}:
			case <-ctx.Done():
				return interrupt(ctx.Err())
			}
		}
		resps := make([]refNodeRecvResp, n)
		for i, s := range servers {
			select {
			case resp := <-s.recvResp:
				if resp.err != nil {
					crash(i, r, resp.err)
				}
				resps[i] = resp
			case <-ctx.Done():
				return interrupt(ctx.Err())
			}
		}
		if record(r, resps) {
			return ht
		}
	}
	ht.TimedOut = true
	return ht
}

// refCrashedNode is the stand-in served for a node that already panicked in
// Init: it participates in the round protocol but does nothing.
type refCrashedNode struct{}

func (refCrashedNode) Init(int, *graph.Graph, Value) {}
func (refCrashedNode) Send(int) map[int]Message      { return nil }
func (refCrashedNode) Receive(int, map[int]Message)  {}
func (refCrashedNode) Decision() (Value, bool)       { return -1, false }

// refOpOf extracts the method name from a refRecoverDiag error ("Send panicked
// at round …").
func refOpOf(err error) string {
	s := err.Error()
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' {
			return s[:i]
		}
	}
	return s
}

// refNode is a seeded random node for the differential tests: it halts,
// decides late or never, sends nil messages and messages to non-neighbours,
// folds every delivery into its decision value, and panics in one chosen
// op at one chosen round.
type refNode struct {
	haltAt, decideAt int // Send sends nothing from round haltAt on (0: never); decide after round decideAt (-1: never)
	panicOp          string
	panicRound       int

	id, round, acc int
	g              *graph.Graph
	decided        bool
}

func (p *refNode) boom(op string) {
	if p.panicOp == op && p.panicRound == p.round {
		panic(fmt.Sprintf("node %d %s %d", p.id, op, p.round))
	}
}

func (p *refNode) Init(id int, g *graph.Graph, input Value) {
	p.id, p.g, p.round, p.acc = id, g, 0, int(input)+id
	p.boom("Init")
	p.decided = p.decideAt == 0
}

func (p *refNode) Send(r int) map[int]Message {
	p.round = r
	p.boom("Send")
	if p.haltAt > 0 && r >= p.haltAt {
		return nil
	}
	out := map[int]Message{(p.id + 2) % p.g.N(): -1}
	for _, nb := range p.g.Neighbors(p.id) {
		if (p.acc+nb+r)%5 == 0 {
			out[nb] = nil
		} else {
			out[nb] = p.acc*10 + r
		}
	}
	return out
}

func (p *refNode) Receive(r int, msgs map[int]Message) {
	p.round = r
	p.boom("Receive")
	sum := len(msgs)
	for from, m := range msgs {
		sum += from*31 + m.(int)
	}
	p.acc = (p.acc*7 + sum) % 1009
	if r == p.decideAt {
		p.decided = true
	}
}

func (p *refNode) Decision() (Value, bool) {
	p.boom("Decision")
	if !p.decided {
		return sim.None, false
	}
	return Value(p.acc % 2), true
}

// netCase is one generated network execution; ctxMode is 0 for a live
// context, 1 for one cancelled before the run, 2 for one the adversary
// cancels in round cancelAt.
type netCase struct {
	g         *graph.Graph
	nodes     []refNode
	inputs    []Value
	seed      int64
	maxRounds int
	ctxMode   int
	cancelAt  int
}

var netOps = []string{"", "", "", "Init", "Send", "Receive", "Decision"}

func newNetCase(rng *rand.Rand) netCase {
	n := 2 + rng.Intn(4)
	c := netCase{seed: rng.Int63(), maxRounds: rng.Intn(13), ctxMode: rng.Intn(3), cancelAt: 1 + rng.Intn(12)}
	switch rng.Intn(3) {
	case 0:
		c.g = graph.Complete(n)
	case 1:
		c.g = graph.Path(n)
	default:
		c.g = graph.Cycle(max(n, 3))
	}
	for i := 0; i < c.g.N(); i++ {
		c.inputs = append(c.inputs, Value(rng.Intn(2)))
		c.nodes = append(c.nodes, refNode{haltAt: rng.Intn(8), decideAt: rng.Intn(10) - 1,
			panicOp: netOps[rng.Intn(len(netOps))], panicRound: rng.Intn(8)})
	}
	return c
}

func (c netCase) fresh() []Node {
	out := make([]Node, len(c.nodes))
	for i := range c.nodes {
		nd := c.nodes[i]
		out[i] = &nd
	}
	return out
}

// adversary drops each directed edge's message with probability 1/4, as
// a fixed function of the seed, the round and the edge, and cancels the
// context in round cancelAt when asked to.
func (c netCase) adversary(cancel context.CancelFunc) Adversary {
	return FuncAdversary(func(r int, g *graph.Graph) map[graph.DirEdge]bool {
		if c.ctxMode == 2 && r == c.cancelAt && cancel != nil {
			cancel()
		}
		out := map[graph.DirEdge]bool{}
		for _, e := range g.Edges() {
			for _, d := range []graph.DirEdge{{From: e.U, To: e.V}, {From: e.V, To: e.U}} {
				h := uint64(c.seed) ^ uint64(r*64+d.From*8+d.To)*0x9e3779b97f4a7c15
				h ^= h >> 29
				if (h*0xbf58476d1ce4e5b9)>>62 == 0 {
					out[d] = true
				}
			}
		}
		return out
	})
}

// hardened runs a hardened runner on c under c's context mode.
func (c netCase) hardened(run func(context.Context, *graph.Graph, []Node, []Value, Adversary, int) HardenedTrace) HardenedTrace {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if c.ctxMode == 1 {
		cancel()
	}
	return run(ctx, c.g, c.fresh(), c.inputs, c.adversary(cancel), c.maxRounds)
}

func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

// crashKeys renders crashes as "node op round first-line" keys, in order
// or sorted.
func crashKeys(cs []NodeCrash, sorted bool) []string {
	var keys []string
	for _, c := range cs {
		line, _, _ := strings.Cut(c.Diag, "\n")
		keys = append(keys, fmt.Sprintf("%d %s %d %s", c.Node, c.Op, c.Round, line))
	}
	if sorted {
		sort.Strings(keys)
	}
	return keys
}

func sameHardened(t *testing.T, what string, got, want HardenedTrace, sortCrashes bool) {
	t.Helper()
	if !reflect.DeepEqual(got.Trace, want.Trace) || got.Interrupted != want.Interrupted ||
		!errors.Is(got.Err, want.Err) || (got.Err == nil) != (want.Err == nil) ||
		!reflect.DeepEqual(crashKeys(got.Crashes, sortCrashes), crashKeys(want.Crashes, sortCrashes)) {
		t.Fatalf("%s:\n got: %s interrupted=%v err=%v crashes=%v\nwant: %s interrupted=%v err=%v crashes=%v", what,
			got.Trace, got.Interrupted, got.Err, got.Crashes, want.Trace, want.Interrupted, want.Err, want.Crashes)
	}
}

// oldServerBug reports whether the old goroutine runner's trace shows one
// of its two departures from the sequential semantics, both panics in
// Decision: it asked decided nodes again every round (the one loop asks
// only undecided ones), and a node that panicked in its round-0 Decision
// kept sending and receiving, because its server had already started.
func oldServerBug(ht HardenedTrace) bool {
	for _, cr := range ht.Crashes {
		if d := ht.DecisionRound[cr.Node]; cr.Op == "Decision" && (cr.Round == 0 || d >= 0 && d < cr.Round) {
			return true
		}
	}
	return false
}

// checkNetAgainstReference runs every entry point on case c and compares
// it with its reference runner.
func checkNetAgainstReference(t *testing.T, c netCase) {
	t.Helper()
	what := fmt.Sprintf("graph n=%d edges=%d case %+v", c.g.N(), len(c.g.Edges()), c)

	var got, want Trace
	gotPanic := recovered(func() { got = Run(c.g, c.fresh(), c.inputs, c.adversary(nil), c.maxRounds) })
	wantPanic := recovered(func() { want = refRun(c.g, c.fresh(), c.inputs, c.adversary(nil), c.maxRounds) })
	if gotPanic != wantPanic || !reflect.DeepEqual(got, want) {
		t.Fatalf("Run: %s panic=%v, want %s panic=%v (%s)", got, gotPanic, want, wantPanic, what)
	}

	seq := c.hardened(refRunHardened)
	sameHardened(t, "RunHardened "+what, c.hardened(RunHardened), seq, false)

	// The goroutine runners: the old one is the reference except where it
	// departed from the sequential semantics (oldServerBug); there, and
	// under a mid-run cancellation, whose effect on the servers depends on
	// scheduling, the sequential semantics are the reference, with crashes
	// compared as sets (servers report in node order).
	conc := c.hardened(RunGoroutinesHardened)
	ref := c.hardened(refRunGoroutinesHardened)
	switch {
	case c.ctxMode == 2:
		checkMidRunCancel(t, what, conc, c)
	case oldServerBug(ref):
		sameHardened(t, "RunGoroutinesHardened (old server bug) "+what, conc, seq, true)
	default:
		sameHardened(t, "RunGoroutinesHardened "+what, conc, ref, false)
	}
	plain := RunGoroutines(c.g, c.fresh(), c.inputs, c.adversary(nil), c.maxRounds)
	refPlain := refRunGoroutines(c.g, c.fresh(), c.inputs, c.adversary(nil), c.maxRounds)
	if oldServerBug(c.liveRef(refRunGoroutinesHardened, c.maxRounds)) {
		refPlain = c.liveRef(refRunHardened, c.maxRounds).Trace
	}
	if !reflect.DeepEqual(plain, refPlain) {
		t.Fatalf("RunGoroutines: %s, want %s (%s)", plain, refPlain, what)
	}
}

// liveRef runs a reference under a live context for maxRounds rounds.
func (c netCase) liveRef(run func(context.Context, *graph.Graph, []Node, []Value, Adversary, int) HardenedTrace, maxRounds int) HardenedTrace {
	return run(context.Background(), c.g, c.fresh(), c.inputs, c.adversary(nil), maxRounds)
}

// checkMidRunCancel checks a server run whose context was cancelled in
// round k. Seen at the next round boundary, the cancellation leaves the
// sequential reference's first k rounds, marked interrupted if the run had
// not ended; a server wait may also see it within round k, which leaves
// round k's drops, the decisions of earlier rounds, and a subset of the
// crashes and decisions of round k.
func checkMidRunCancel(t *testing.T, what string, got HardenedTrace, c netCase) {
	t.Helper()
	k := c.cancelAt
	want := c.liveRef(refRunHardened, min(k, c.maxRounds))
	if want.TimedOut && k < c.maxRounds {
		want.Interrupted, want.Err = true, context.Canceled
	}
	if !got.Interrupted || got.Rounds != k || (want.Interrupted && want.Rounds == k &&
		reflect.DeepEqual(crashKeys(got.Crashes, true), crashKeys(want.Crashes, true)) &&
		reflect.DeepEqual(got.Trace, want.Trace)) {
		sameHardened(t, "RunGoroutinesHardened (cancelled at a round boundary) "+what, got, want, true)
		return
	}
	if !errors.Is(got.Err, context.Canceled) || !got.TimedOut || got.MaxDropsPerRound != want.MaxDropsPerRound || got.TotalDrops != want.TotalDrops {
		t.Fatalf("RunGoroutinesHardened (cancelled in round %d): %s err=%v, want %s (%s)", k, got.Trace, got.Err, want.Trace, what)
	}
	for i, d := range got.DecisionRound {
		w := want.DecisionRound[i]
		if (w < k && (d != w || got.Decisions[i] != want.Decisions[i])) || (w == k && d != -1 && d != k) {
			t.Fatalf("RunGoroutinesHardened (cancelled in round %d): node %d decided %d@%d, want %d@%d (%s)",
				k, i, got.Decisions[i], d, want.Decisions[i], w, what)
		}
	}
	gotKeys, wantKeys := map[string]bool{}, map[string]bool{}
	for _, key := range crashKeys(got.Crashes, false) {
		gotKeys[key] = true
	}
	for i, key := range crashKeys(want.Crashes, false) {
		wantKeys[key] = true
		if !gotKeys[key] && want.Crashes[i].Round < k {
			t.Fatalf("RunGoroutinesHardened (cancelled in round %d): crash %s missing from %v (%s)", k, key, got.Crashes, what)
		}
	}
	for key := range gotKeys {
		if !wantKeys[key] {
			t.Fatalf("RunGoroutinesHardened (cancelled in round %d): crash %s not in %v (%s)", k, key, want.Crashes, what)
		}
	}
}

// TestRunnersMatchReference pins every entry point to the runner it
// replaced, over seeded random nodes, graphs, adversaries, horizons and
// contexts.
func TestRunnersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	n := 1500
	if testing.Short() {
		n = 150
	}
	for i := 0; i < n; i++ {
		checkNetAgainstReference(t, newNetCase(rng))
	}
}

func FuzzRunnersVsReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 2} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkNetAgainstReference(t, newNetCase(rand.New(rand.NewSource(seed))))
	})
}

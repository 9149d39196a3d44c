package sim

// The three round loops the runners had before they were folded into one
// (plain sequential, goroutine/CSP and hardened), kept verbatim apart from
// the ref prefix on their names. They are the references the one loop is
// differentially tested against; this is the only place they exist.

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"context"
	"fmt"
	"repro/internal/omission"
	"runtime/debug"
)

// refRun executes the two processes under the adversary for at most
// maxRounds rounds, sequentially. Processes are Init-ed with the given
// inputs. The run stops as soon as both processes have decided (a decided
// process may keep running until its partner decides — per the Process
// contract it signals halt via Send).
func refRun(white, black Process, inputs [2]Value, adv Adversary, maxRounds int) Trace {
	white.Init(White, inputs[0])
	black.Init(Black, inputs[1])
	tr := Trace{Inputs: inputs, DecisionRound: [2]int{-1, -1}}
	tr.Decisions = [2]Value{None, None}
	record := func(round int) bool {
		both := true
		for i, p := range []Process{white, black} {
			if tr.DecisionRound[i] < 0 {
				if v, ok := p.Decision(); ok {
					tr.Decisions[i] = v
					tr.DecisionRound[i] = round
				} else {
					both = false
				}
			}
		}
		return both
	}
	if record(0) {
		return tr
	}
	for r := 1; r <= maxRounds; r++ {
		letter := adv.Next(r, tr.Played)
		tr.Played = append(tr.Played, letter)
		tr.Rounds = r

		wMsg, wOK := white.Send(r)
		bMsg, bOK := black.Send(r)
		if wOK {
			tr.MessagesSent++
		}
		if bOK {
			tr.MessagesSent++
		}

		var toWhite, toBlack Message
		if bOK && !letter.LostBlack() {
			toWhite = bMsg
			if wOK {
				tr.MessagesDelivered++
			}
		}
		if wOK && !letter.LostWhite() {
			toBlack = wMsg
			if bOK {
				tr.MessagesDelivered++
			}
		}
		// A halted process no longer takes receive steps.
		if wOK {
			white.Receive(r, toWhite)
		}
		if bOK {
			black.Receive(r, toBlack)
		}
		if record(r) {
			return tr
		}
	}
	tr.TimedOut = true
	return tr
}

type refSendResp struct {
	msg Message
	ok  bool
}

type refRecvReq struct {
	round   int
	msg     Message
	deliver bool // false when the process has halted: skip Receive
}

type refRecvResp struct {
	decided bool
	value   Value
}

type refProcServer struct {
	sendReq     chan int
	refSendResp chan refSendResp
	refRecvReq  chan refRecvReq
	refRecvResp chan refRecvResp
}

// refServe runs the process event loop until sendReq is closed.
func refServe(p Process, s *refProcServer) {
	for r := range s.sendReq {
		msg, ok := p.Send(r)
		s.refSendResp <- refSendResp{msg, ok}
		req := <-s.refRecvReq
		if req.deliver {
			p.Receive(req.round, req.msg)
		}
		v, decided := p.Decision()
		s.refRecvResp <- refRecvResp{decided, v}
	}
}

// refRunGoroutines executes the same semantics as Run, with each process
// hosted in its own goroutine. The resulting trace is identical to the
// sequential runner's (asserted by tests): determinism comes from the
// lock-step protocol, not from scheduling.
func refRunGoroutines(white, black Process, inputs [2]Value, adv Adversary, maxRounds int) Trace {
	white.Init(White, inputs[0])
	black.Init(Black, inputs[1])

	servers := [2]*refProcServer{}
	for i, p := range []Process{white, black} {
		s := &refProcServer{
			sendReq:     make(chan int),
			refSendResp: make(chan refSendResp),
			refRecvReq:  make(chan refRecvReq),
			refRecvResp: make(chan refRecvResp),
		}
		servers[i] = s
		go refServe(p, s)
	}
	defer func() {
		close(servers[0].sendReq)
		close(servers[1].sendReq)
	}()

	tr := Trace{Inputs: inputs, DecisionRound: [2]int{-1, -1}, Decisions: [2]Value{None, None}}

	// Initial decision check (round 0) happens outside the servers: the
	// processes are not concurrently owned yet.
	both := true
	for i, p := range []Process{white, black} {
		if v, ok := p.Decision(); ok {
			tr.Decisions[i] = v
			tr.DecisionRound[i] = 0
		} else {
			both = false
		}
	}
	if both {
		return tr
	}

	for r := 1; r <= maxRounds; r++ {
		letter := adv.Next(r, tr.Played)
		tr.Played = append(tr.Played, letter)
		tr.Rounds = r

		// Phase 1: collect sends from both servers concurrently.
		servers[White].sendReq <- r
		servers[Black].sendReq <- r
		wSend := <-servers[White].refSendResp
		bSend := <-servers[Black].refSendResp

		if wSend.ok {
			tr.MessagesSent++
		}
		if bSend.ok {
			tr.MessagesSent++
		}

		// Phase 2: apply the omission letter and deliver.
		var toWhite, toBlack Message
		if bSend.ok && !letter.LostBlack() {
			toWhite = bSend.msg
			if wSend.ok {
				tr.MessagesDelivered++
			}
		}
		if wSend.ok && !letter.LostWhite() {
			toBlack = wSend.msg
			if bSend.ok {
				tr.MessagesDelivered++
			}
		}
		servers[White].refRecvReq <- refRecvReq{round: r, msg: toWhite, deliver: wSend.ok}
		servers[Black].refRecvReq <- refRecvReq{round: r, msg: toBlack, deliver: bSend.ok}
		wRecv := <-servers[White].refRecvResp
		bRecv := <-servers[Black].refRecvResp

		both = true
		for i, resp := range []refRecvResp{wRecv, bRecv} {
			if tr.DecisionRound[i] < 0 {
				if resp.decided {
					tr.Decisions[i] = resp.value
					tr.DecisionRound[i] = r
				} else {
					both = false
				}
			}
		}
		if both {
			return tr
		}
	}
	tr.TimedOut = true
	return tr
}

// refHardenedProc wraps one process with panic isolation: after the first
// panic the process is crashed — it sends nothing, receives nothing, and
// its decision is frozen.
type refHardenedProc struct {
	p       Process
	id      ID
	crashed bool
}

func (h *refHardenedProc) guard(round int, op string, crashes *[]Crash) {
	if p := recover(); p != nil {
		h.crashed = true
		*crashes = append(*crashes, Crash{
			Proc:  h.id,
			Round: round,
			Op:    op,
			Diag:  fmt.Sprintf("%v\n%s", p, debug.Stack()),
		})
	}
}

func (h *refHardenedProc) send(r int, crashes *[]Crash) (msg Message, ok bool) {
	if h.crashed {
		return nil, false
	}
	defer h.guard(r, "Send", crashes)
	return h.p.Send(r)
}

func (h *refHardenedProc) receive(r int, msg Message, crashes *[]Crash) {
	if h.crashed {
		return
	}
	defer h.guard(r, "Receive", crashes)
	h.p.Receive(r, msg)
}

func (h *refHardenedProc) decision(r int, crashes *[]Crash) (Value, bool) {
	if h.crashed {
		return None, false
	}
	defer h.guard(r, "Decision", crashes)
	return h.p.Decision()
}

// refRunHardened executes the two processes under the adversary with panic
// isolation and context-based cancellation. Semantics match Run exactly
// on well-behaved executions (asserted by tests); a panicking process is
// converted into a crash-stop, and an expired context stops the run at
// the next round boundary with Interrupted set.
func refRunHardened(ctx context.Context, white, black Process, inputs [2]Value, adv Adversary, maxRounds int) HardenedTrace {
	ht := HardenedTrace{Trace: Trace{Inputs: inputs, DecisionRound: [2]int{-1, -1}, Decisions: [2]Value{None, None}}}
	procs := [2]*refHardenedProc{{p: white, id: White}, {p: black, id: Black}}
	for i, h := range procs {
		func() {
			defer h.guard(0, "Init", &ht.Crashes)
			h.p.Init(h.id, inputs[i])
		}()
	}

	record := func(round int) bool {
		both := true
		for i, h := range procs {
			if ht.DecisionRound[i] < 0 {
				if v, ok := h.decision(round, &ht.Crashes); ok {
					ht.Decisions[i] = v
					ht.DecisionRound[i] = round
				} else {
					both = false
				}
			}
		}
		return both
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
		letter := adv.Next(r, ht.Played)
		ht.Played = append(ht.Played, letter)
		ht.Rounds = r

		wMsg, wOK := procs[White].send(r, &ht.Crashes)
		bMsg, bOK := procs[Black].send(r, &ht.Crashes)
		if wOK {
			ht.MessagesSent++
		}
		if bOK {
			ht.MessagesSent++
		}

		var toWhite, toBlack Message
		if bOK && !letter.LostBlack() {
			toWhite = bMsg
			if wOK {
				ht.MessagesDelivered++
			}
		}
		if wOK && !letter.LostWhite() {
			toBlack = wMsg
			if bOK {
				ht.MessagesDelivered++
			}
		}
		if wOK {
			procs[White].receive(r, toWhite, &ht.Crashes)
		}
		if bOK {
			procs[Black].receive(r, toBlack, &ht.Crashes)
		}
		if record(r) {
			return ht
		}
		// Both processes crashed: nothing can ever decide; stop early.
		if procs[White].crashed && procs[Black].crashed {
			ht.TimedOut = true
			return ht
		}
	}
	ht.TimedOut = true
	return ht
}

// refProc is a seeded random process for the differential tests: it halts,
// decides late or never, folds every delivery into its decision value, and
// panics in one chosen op at one chosen round.
type refProc struct {
	haltAt, decideAt int // Send reports a halt from round haltAt on (0: never); decide after round decideAt (-1: never)
	panicOp          string
	panicRound       int

	id      ID
	round   int
	acc     int
	decided bool
}

func (p *refProc) boom(op string) {
	if p.panicOp == op && p.panicRound == p.round {
		panic(fmt.Sprintf("%s %s %d", p.id, op, p.round))
	}
}

func (p *refProc) Init(id ID, input Value) {
	p.id, p.round, p.acc = id, 0, int(input)
	p.boom("Init")
	p.decided = p.decideAt == 0
}

func (p *refProc) Send(r int) (Message, bool) {
	p.round = r
	p.boom("Send")
	if p.haltAt > 0 && r >= p.haltAt {
		return nil, false
	}
	return p.acc*10 + r, true
}

func (p *refProc) Receive(r int, m Message) {
	p.round = r
	p.boom("Receive")
	if m != nil {
		p.acc = (p.acc*7 + m.(int)) % 1009
	} else {
		p.acc = (p.acc*7 + 1) % 1009
	}
	if r == p.decideAt {
		p.decided = true
	}
}

func (p *refProc) Decision() (Value, bool) {
	p.boom("Decision")
	if !p.decided {
		return None, false
	}
	return Value(p.acc % 2), true
}

// refCase is one generated execution: two process configurations, the
// inputs, the adversary's seed, the horizon and the context mode (0 live,
// 1 cancelled before the run, 2 cancelled by the adversary in round
// cancelAt).
type refCase struct {
	procs     [2]refProc
	inputs    [2]Value
	seed      int64
	maxRounds int
	ctxMode   int
	cancelAt  int
}

var refOps = []string{"", "", "Init", "Send", "Receive", "Decision"}

func newRefCase(rng *rand.Rand) refCase {
	c := refCase{seed: rng.Int63(), maxRounds: rng.Intn(13), ctxMode: rng.Intn(3), cancelAt: 1 + rng.Intn(12)}
	for i := range c.procs {
		c.inputs[i] = Value(rng.Intn(2))
		c.procs[i] = refProc{haltAt: rng.Intn(8), decideAt: rng.Intn(10) - 1, panicRound: rng.Intn(8)}
		// Panics in one process, both, or neither.
		if rng.Intn(3) > 0 {
			c.procs[i].panicOp = refOps[rng.Intn(len(refOps))]
		}
	}
	return c
}

func (c refCase) fresh() (Process, Process) {
	w, b := c.procs[White], c.procs[Black]
	return &w, &b
}

func (c refCase) panics() bool { return c.procs[White].panicOp != "" || c.procs[Black].panicOp != "" }

// adversary plays a letter of Σ that is a fixed function of the seed and
// the round, and cancels the context in round cancelAt when asked to.
func (c refCase) adversary(cancel context.CancelFunc) Adversary {
	return FuncAdversary(func(r int, _ omission.Word) omission.Letter {
		if c.ctxMode == 2 && r == c.cancelAt && cancel != nil {
			cancel()
		}
		h := uint64(c.seed) ^ uint64(r)*0x9e3779b97f4a7c15
		h ^= h >> 31
		return omission.Sigma[(h*0xbf58476d1ce4e5b9)>>62]
	})
}

func (c refCase) context() (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	if c.ctxMode == 1 {
		cancel()
	}
	return ctx, cancel
}

// recovered runs f and returns the value it panicked with, if any.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}

func sameHardened(t *testing.T, what string, got, want HardenedTrace) {
	t.Helper()
	if !got.Trace.Equal(want.Trace) || got.Interrupted != want.Interrupted || !errors.Is(got.Err, want.Err) || (got.Err == nil) != (want.Err == nil) {
		t.Fatalf("%s: trace differs\n got: %s interrupted=%v err=%v\nwant: %s interrupted=%v err=%v",
			what, got.Trace, got.Interrupted, got.Err, want.Trace, want.Interrupted, want.Err)
	}
	if len(got.Crashes) != len(want.Crashes) {
		t.Fatalf("%s: crashes %v, want %v", what, got.Crashes, want.Crashes)
	}
	for i, g := range got.Crashes {
		w := want.Crashes[i]
		gl, _, _ := strings.Cut(g.Diag, "\n")
		wl, _, _ := strings.Cut(w.Diag, "\n")
		if g.Proc != w.Proc || g.Round != w.Round || g.Op != w.Op || gl != wl {
			t.Fatalf("%s: crash %d is %v, want %v", what, i, g, w)
		}
	}
}

// checkAgainstReference runs every entry point on case c and compares it
// with its reference runner.
func checkAgainstReference(t *testing.T, c refCase) {
	t.Helper()
	what := fmt.Sprintf("case %+v", c)

	// Run: the same trace, or the same panic.
	var got, want Trace
	gotPanic := recovered(func() { w, b := c.fresh(); got = Run(w, b, c.inputs, c.adversary(nil), c.maxRounds) })
	wantPanic := recovered(func() { w, b := c.fresh(); want = refRun(w, b, c.inputs, c.adversary(nil), c.maxRounds) })
	if gotPanic != wantPanic || (gotPanic == nil && !got.Equal(want)) {
		t.Fatalf("Run: %s panic=%v, want %s panic=%v (%s)", got, gotPanic, want, wantPanic, what)
	}

	// RunGoroutines: the old goroutine runner let a panic kill the
	// program, so a panicking case is held to Run's reference instead.
	gotPanic = recovered(func() { w, b := c.fresh(); got = RunGoroutines(w, b, c.inputs, c.adversary(nil), c.maxRounds) })
	if !c.panics() {
		w, b := c.fresh()
		want = refRunGoroutines(w, b, c.inputs, c.adversary(nil), c.maxRounds)
		if gotPanic != nil || !got.Equal(want) {
			t.Fatalf("RunGoroutines: %s panic=%v, want %s (%s)", got, gotPanic, want, what)
		}
	} else if gotPanic != wantPanic || (gotPanic == nil && !got.Equal(want)) {
		// Both processes may panic in the same round, white in Decision
		// and black in Receive: sequentially black's panic comes first,
		// on the servers white's reply is read first.
		ctx, cancel := context.WithCancel(context.Background())
		w, b := c.fresh()
		ref := refRunHardened(ctx, w, b, c.inputs, c.adversary(cancel), c.maxRounds)
		cancel()
		sameRound := len(ref.Crashes) == 2 && ref.Crashes[0].Round == ref.Crashes[1].Round
		if !sameRound || gotPanic == nil || !strings.HasPrefix(ref.Crashes[1].Diag, fmt.Sprint(gotPanic)) {
			t.Fatalf("RunGoroutines: %s panic=%v, want %s panic=%v (%s)", got, gotPanic, want, wantPanic, what)
		}
	}

	// RunHardened: the same hardened trace.
	ctx, cancel := c.context()
	w, b := c.fresh()
	hard := RunHardened(ctx, w, b, c.inputs, c.adversary(cancel), c.maxRounds)
	cancel()
	ctx, cancel = c.context()
	w, b = c.fresh()
	ref := refRunHardened(ctx, w, b, c.inputs, c.adversary(cancel), c.maxRounds)
	cancel()
	sameHardened(t, "RunHardened "+what, hard, ref)
}

// TestRunnersMatchReference pins every entry point to the runner it
// replaced, over seeded random processes, adversaries, horizons and
// contexts.
func TestRunnersMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	n := 3000
	if testing.Short() {
		n = 300
	}
	for i := 0; i < n; i++ {
		checkAgainstReference(t, newRefCase(rng))
	}
}

func FuzzRunnersVsReference(f *testing.F) {
	for _, seed := range []int64{0, 1, 2} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		checkAgainstReference(t, newRefCase(rand.New(rand.NewSource(seed))))
	})
}

// Package coordattack is a library for studying the Coordinated Attack
// Problem (two-generals problem) under arbitrary patterns of message loss,
// reproducing Fevat & Godard, "Minimal Obstructions for the Coordinated
// Attack Problem and Beyond" (IPDPS 2011).
//
// # Overview
//
// Two synchronous processes, white and black, exchange one message each
// per round; an adversary drops messages according to an infinite word
// over the alphabet Σ = {'.', 'w', 'b', 'x'} ('.' = no loss, 'w' = white's
// message lost, 'b' = black's lost, 'x' = both). A set of such infinite
// words is an omission scheme; the question is for which schemes binary
// uniform consensus is solvable.
//
// The library provides:
//
//   - The index function ind : Γ* → [0, 3^r−1] whose ±1 adjacency encodes
//     one-process indistinguishability (Index, UnIndex, AdjacentWord).
//
//   - ω-regular omission schemes as deterministic Büchi automata, with all
//     named environments of the paper (S0, TWhite, TBlack, C1, S1, R1, S2,
//     Fair, AlmostFair) and combinators (Intersect, Union, Minus).
//
//   - The Theorem III.8 decision procedure (Classify): a scheme L ⊆ Γ^ω is
//     solvable iff a fair scenario, a whole special pair, or one of the
//     constant scenarios (w)^ω/(b)^ω lies outside L — with extracted
//     witnesses.
//
//   - The generic consensus algorithm A_w (NewAlgorithm), its round-optimal
//     bounded variant (Proposition III.15), simulation kernels (sequential
//     and goroutine/CSP-based), and consensus property checking.
//
//   - Bounded-round solvability analysis through full-information
//     indistinguishability chains (Analyze), the operational form
//     of the paper's impossibility machinery.
//
//   - Section V: synchronous networks of arbitrary topology — consensus
//     with at most f message losses per round is solvable iff f < c(G),
//     the edge connectivity (NetworkSolvable), with flooding consensus,
//     the Γ_C cut adversary, and the two-process reduction.
//
//   - Section IV-C: the special-pair matching on unfair scenarios, roles,
//     and the decreasing sequence of obstructions (minimal-obstruction
//     structure).
//
// # Quick start
//
//	s := coordattack.AlmostFair()
//	v, _ := coordattack.Classify(s)
//	white, black, _ := coordattack.NewAlgorithm(v)
//	tr := coordattack.Run(white, black, [2]coordattack.Value{0, 1},
//	    coordattack.MustScenario("w.(.)"), 100)
//	fmt.Println(tr.Decisions, coordattack.Check(tr).OK())
package coordattack

import (
	"context"
	"fmt"
	"math/big"

	"repro/internal/bivalency"
	"repro/internal/chain"
	"repro/internal/classify"
	"repro/internal/consensus"
	"repro/internal/fullinfo"
	"repro/internal/obstruction"
	"repro/internal/omission"
	"repro/internal/scheme"
	"repro/internal/sim"
)

// Re-exported core types. See the respective internal packages for full
// documentation of methods.
type (
	// Letter is one symbol of the omission alphabet Σ.
	Letter = omission.Letter
	// Word is a finite sequence of letters (a partial scenario).
	Word = omission.Word
	// Scenario is an ultimately periodic infinite word u·v^ω.
	Scenario = omission.Scenario
	// Source is an infinite letter sequence revealed lazily.
	Source = omission.Source
	// Scheme is an ω-regular omission scheme.
	Scheme = scheme.Scheme
	// Verdict is the full Theorem III.8 analysis of a scheme.
	Verdict = classify.Result
	// Process is a deterministic synchronous two-process algorithm.
	Process = sim.Process
	// Value is a consensus value (0 or 1; None while undecided).
	Value = sim.Value
	// Trace records one two-process execution.
	Trace = sim.Trace
	// Adversary chooses omission letters adaptively.
	Adversary = sim.Adversary
	// Report is the outcome of the consensus property check.
	Report = sim.Report
	// Role classifies an unfair scenario in the special-pair matching.
	Role = obstruction.Role
	// Pair is one edge of the special-pair matching.
	Pair = obstruction.Pair
)

// Alphabet letters.
const (
	// NoLoss delivers both messages ('.').
	NoLoss = omission.None
	// LossWhite drops white's message ('w').
	LossWhite = omission.LossWhite
	// LossBlack drops black's message ('b').
	LossBlack = omission.LossBlack
	// LossBoth drops both ('x').
	LossBoth = omission.LossBoth
)

// Process identities and sentinel value.
const (
	White = sim.White
	Black = sim.Black
	None  = sim.None
)

// Unbounded is the Verdict.MinRounds value meaning no bounded-round
// algorithm exists.
const Unbounded = classify.Unbounded

// Matching roles (Section IV-C).
const (
	RoleFair     = obstruction.RoleFair
	RoleLower    = obstruction.RoleLower
	RoleUpper    = obstruction.RoleUpper
	RoleConstant = obstruction.RoleConstant
)

// ParseWord parses a finite word such as ".wb".
func ParseWord(s string) (Word, error) { return omission.ParseWord(s) }

// MustWord is ParseWord panicking on error.
func MustWord(s string) Word { return omission.MustWord(s) }

// ParseScenario parses "u(v)" as the scenario u·v^ω.
func ParseScenario(s string) (Scenario, error) { return omission.ParseScenario(s) }

// MustScenario is ParseScenario panicking on error.
func MustScenario(s string) Scenario { return omission.MustScenario(s) }

// Index computes ind(w) of Definition III.1.
func Index(w Word) *big.Int { return omission.Index(w) }

// IndexInt64 computes ind(w) as an int64 for |w| ≤ 39.
func IndexInt64(w Word) (int64, error) { return omission.IndexInt64(w) }

// UnIndex inverts the index bijection on Γ^r; it panics on out-of-range
// input (use UnIndexChecked for untrusted arguments).
func UnIndex(r int, k *big.Int) Word { return omission.UnIndex(r, k) }

// UnIndexChecked is UnIndex returning an error instead of panicking on
// out-of-range input.
func UnIndexChecked(r int, k *big.Int) (Word, error) { return omission.UnIndexChecked(r, k) }

// UnIndexInt64Checked is UnIndexChecked on the int64 fast path, valid
// for r ≤ 39 (beyond that 3^r − 1 overflows an int64).
func UnIndexInt64Checked(r int, k int64) (Word, error) { return omission.UnIndexInt64Checked(r, k) }

// AdjacentWord returns the word of equal length with index ind(w)+1.
func AdjacentWord(w Word) (Word, bool) { return omission.AdjacentWord(w) }

// Named schemes of the paper (Example II.11 and more).
var (
	// S0: no messenger is ever captured.
	S0 = scheme.S0
	// TWhite: only White's messengers may be captured.
	TWhite = scheme.TWhite
	// TBlack: only Black's messengers may be captured.
	TBlack = scheme.TBlack
	// C1: crash-like — eventually one process's messages are lost forever.
	C1 = scheme.C1
	// S1: at most one (unknown) process loses messages.
	S1 = scheme.S1
	// R1: at most one message lost per round (Γ^ω) — the classic
	// obstruction.
	R1 = scheme.R1
	// S2: any messenger may be captured (Σ^ω).
	S2 = scheme.S2
	// Fair: both directions deliver infinitely often.
	Fair = scheme.Fair
	// AlmostFair: Γ^ω minus the single scenario (b)^ω (Corollary IV.1).
	AlmostFair = scheme.AlmostFair
	// AtMostKLosses: at most k messages lost in total — the classical
	// budgeted-omission model; MinRounds = k+1 (the f+1 bound).
	AtMostKLosses = scheme.AtMostKLosses
	// BlackoutBudget: the all-or-nothing channel with at most k blackout
	// rounds — a double-omission scheme outside Theorem III.8's regime,
	// solvable in k+1 rounds.
	BlackoutBudget = scheme.BlackoutBudget
	// SigmaAtMostKLostMessages: at most k lost messages in total over Σ
	// (a double omission costs two).
	SigmaAtMostKLostMessages = scheme.SigmaAtMostKLostMessages
)

// SchemeByName looks up a named scheme ("S0", "TW", … see SchemeNames).
func SchemeByName(name string) (*Scheme, error) { return scheme.ByName(name) }

// ParseScheme builds a scheme from the rational-expression DSL, e.g.
// "[.w]^w | [.b]^w" (= S1), "[.wb]^w \\ {(b)}" (= AlmostFair), or
// "inf[.b] & inf[.w]". See scheme.Parse for the full grammar.
func ParseScheme(expr string) (*Scheme, error) { return scheme.Parse(expr) }

// SchemeNames lists the scheme registry.
func SchemeNames() []string { return scheme.Names() }

// IntersectSchemes returns L(a) ∩ L(b).
func IntersectSchemes(name string, a, b *Scheme) *Scheme { return scheme.Intersect(name, a, b) }

// UnionSchemes returns L(a) ∪ L(b).
func UnionSchemes(name string, a, b *Scheme) *Scheme { return scheme.Union(name, a, b) }

// MinusScenarios removes ultimately periodic scenarios from a scheme.
func MinusScenarios(name string, s *Scheme, scs ...Scenario) *Scheme {
	return scheme.Minus(name, s, scs...)
}

// SchemesEquivalent compares two schemes as ω-languages.
func SchemesEquivalent(a, b *Scheme) (bool, Scenario) { return scheme.Equivalent(a, b) }

// Classify runs the Theorem III.8 analysis: solvability, per-condition
// detail, an excluded-scenario witness for A_w, and the Corollary III.14
// round bound.
func Classify(s *Scheme) (*Verdict, error) { return classify.Classify(s) }

// ExplainVerdict renders a verdict as a short prose narrative tying each
// Theorem III.8 condition to its consequence.
func ExplainVerdict(v *Verdict) string { return classify.Explain(v) }

// SchemeDOT renders a scheme's Büchi automaton in Graphviz DOT format.
func SchemeDOT(s *Scheme) string { return s.ToDOT() }

// IsSpecialPair reports whether two scenarios form a special pair
// (Definition III.7).
func IsSpecialPair(a, b Scenario) bool { return classify.IsSpecialPair(a, b) }

// SpecialPartner returns the unique special-pair partner of an unfair
// non-constant scenario.
func SpecialPartner(s Scenario) (Scenario, bool) { return classify.SpecialPartner(s) }

// NewAlgorithm builds the pair of A_w processes for a solvable verdict:
// the round-optimal bounded variant (Proposition III.15) when the scheme
// admits a finite round bound, the plain A_w otherwise.
func NewAlgorithm(v *Verdict) (white, black Process, err error) {
	if v == nil || !v.Solvable {
		return nil, nil, fmt.Errorf("coordattack: scheme %v is an obstruction — no algorithm exists", schemeName(v))
	}
	if v.MinRounds != classify.Unbounded && v.MinRounds > 0 {
		w := consensus.BoundedWitness(v.MinRoundsWitness)
		return consensus.NewBoundedAW(w, v.MinRounds), consensus.NewBoundedAW(w, v.MinRounds), nil
	}
	if !v.HasWitness {
		return nil, nil, fmt.Errorf("coordattack: verdict carries no witness")
	}
	return consensus.NewAW(v.Witness), consensus.NewAW(v.Witness), nil
}

func schemeName(v *Verdict) string {
	if v == nil || v.Scheme == nil {
		return "<nil>"
	}
	return v.Scheme.Name()
}

// NewAW builds the generic algorithm A_w directly from an excluded
// scenario (which must be a valid Theorem III.8 witness for the scheme the
// algorithm will face).
func NewAW(excluded Source) Process { return consensus.NewAW(excluded) }

// Run executes two processes under a fixed scenario, sequentially.
func Run(white, black Process, inputs [2]Value, src Source, maxRounds int) Trace {
	return sim.RunScenario(white, black, inputs, src, maxRounds)
}

// RunAdversary executes under an adaptive adversary.
func RunAdversary(white, black Process, inputs [2]Value, adv Adversary, maxRounds int) Trace {
	return sim.Run(white, black, inputs, adv, maxRounds)
}

// RunConcurrent is Run with each process hosted in its own goroutine,
// rounds enforced purely by channel communication. Traces are identical
// to Run's, and a process panic reaches the caller as with Run.
func RunConcurrent(white, black Process, inputs [2]Value, src Source, maxRounds int) Trace {
	return sim.RunGoroutinesScenario(white, black, inputs, src, maxRounds)
}

// Check verifies the three consensus properties on a trace.
func Check(t Trace) Report { return sim.Check(t) }

// RoundsRequest selects a bounded-round solvability computation for the
// unified engine entry point: a fixed horizon, a MinRounds search (run
// incrementally — horizon r+1 extends horizon r's frontier), a
// verdict-only fast path, or the sequential reference walk. See
// chain.Request for all fields.
type RoundsRequest = chain.Request

// RoundsReport is the outcome of Analyze: the Analysis at the decided
// horizon, the Found flag for MinRounds searches, and aggregated
// EngineStats for the whole request.
type RoundsReport = chain.Report

// EngineStats is the engine instrumentation snapshot: configurations
// streamed, views interned, components merged, frontier size, and
// wall time. Attach an observer via RoundsRequest.Observer (or
// NetAnalysisRequest.Observer) to receive one per engine round.
type EngineStats = fullinfo.Stats

// EngineOptions tunes the analysis engine behind Analyze / AnalyzeNet;
// attach via RoundsRequest.Engine or NetAnalysisRequest.Engine. The
// zero value is the standard configuration: automatic backend,
// exhaustive scan, no graph retention.
type EngineOptions = fullinfo.Options

// EngineScratch is a reusable arena of engine state (interner tables,
// frontier buffers, union-find); attach one via EngineOptions.Scratch
// so cache-miss requests reuse allocations instead of repaying them
// per run. One arena serves one run at a time — pool them (sync.Pool)
// for concurrent callers. See fullinfo.Scratch for the contract.
type EngineScratch = fullinfo.Scratch

// NewEngineScratch returns an empty reusable engine arena.
func NewEngineScratch() *EngineScratch { return fullinfo.NewScratch() }

// EngineBackend selects the analysis backend: the symbolic
// index-interval engine (chain-structured schemes decided by interval
// arithmetic on Definition III.1's index bijection), the per-history
// enumerating engine, or automatic selection with fragmentation
// fallback.
type EngineBackend = fullinfo.BackendMode

// The backend modes; see fullinfo.BackendMode.
const (
	BackendAuto      = fullinfo.BackendAuto
	BackendEnumerate = fullinfo.BackendEnumerate
	BackendSymbolic  = fullinfo.BackendSymbolic
)

// ParseEngineBackend parses a -backend flag value ("auto", "enumerate",
// or "symbolic").
func ParseEngineBackend(s string) (EngineBackend, error) {
	return fullinfo.ParseBackendMode(s)
}

// Analyze is the context-first engine entry point for two-process
// bounded-round analysis. Deadlines and cancellation propagate into the
// engine.
func Analyze(ctx context.Context, req RoundsRequest) (RoundsReport, error) {
	return chain.Analyze(ctx, req)
}

// Synthesize compiles a round-optimal consensus algorithm for the scheme
// directly from the full-information analysis (works for double-omission
// schemes too). ok is false when the scheme is not r-round solvable.
func Synthesize(s *Scheme, r int) (white, black Process, ok bool) {
	return chain.Synthesize(s, r)
}

// WorstCaseAdversary plays the letters that maximize A_w's running time
// while staying inside the scheme.
func WorstCaseAdversary(l *Scheme, excluded Source) Adversary {
	return consensus.WorstCaseAdversary(l, excluded)
}

// ProtocolComplexInfo describes the one-dimensional protocol complex at a
// horizon (the topological object of the paper's conclusion).
type ProtocolComplexInfo = chain.Complex

// ProtocolComplex builds the protocol complex of the scheme at horizon r:
// vertices are (process, view) pairs, edges are configurations. For Γ^ω
// it is a single connected cycle at every horizon — the topological form
// of the impossibility.
func ProtocolComplex(s *Scheme, r int) ProtocolComplexInfo { return chain.ProtocolComplex(s, r) }

// ValencyAnalyzer explores a concrete algorithm's valencies against a
// scheme (the Section III-C proof technique, operationalized).
type ValencyAnalyzer = bivalency.Analyzer

// Valency classifications.
const (
	Valent0  = bivalency.Valent0
	Valent1  = bivalency.Valent1
	Bivalent = bivalency.Bivalent
)

// NewValencyAnalyzer builds an analyzer for an algorithm factory on a
// scheme with fixed inputs and exploration horizon.
func NewValencyAnalyzer(factory func() (white, black Process), s *Scheme, inputs [2]Value, horizon int) *ValencyAnalyzer {
	return bivalency.New(factory, s, inputs, horizon)
}

// RoleOf classifies a Γ-scenario in the special-pair matching.
func RoleOf(s Scenario) Role { return obstruction.RoleOf(s) }

// DecreasingObstructions builds the strictly decreasing sequence of
// obstructions L_0 ⊋ L_1 ⊋ … of Section IV-C.
func DecreasingObstructions(n int) []*Scheme { return obstruction.DecreasingObstructions(n) }

// UnfairWindow enumerates canonical unfair scenarios with bounded prefix.
func UnfairWindow(maxPrefix int) []Scenario { return obstruction.UnfairWindow(maxPrefix) }

// PairGraph returns the special-pair matching edges within a window.
func PairGraph(window []Scenario) []Pair { return obstruction.PairGraph(window) }

// InCanonicalMinimalObstruction tests membership in the canonical
// (non-regular) minimal obstruction Γ^ω minus all lower pair members.
func InCanonicalMinimalObstruction(s Scenario) bool {
	return obstruction.InCanonicalMinimalObstruction(s)
}

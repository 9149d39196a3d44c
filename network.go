package coordattack

import (
	"context"
	"math/rand"

	"repro/internal/graph"
	"repro/internal/nchain"
	"repro/internal/netconsensus"
	"repro/internal/netsim"
	"repro/internal/omission"
)

// Network-facing API: Section V of the paper — consensus on synchronous
// communication networks of arbitrary topology with at most f message
// losses per round.

type (
	// Graph is a simple undirected communication network.
	Graph = graph.Graph
	// Edge is an undirected edge.
	Edge = graph.Edge
	// DirEdge is a directed message channel.
	DirEdge = graph.DirEdge
	// Cut is a minimum edge cut with connected sides.
	Cut = graph.Cut
	// Node is a deterministic synchronous network process.
	Node = netsim.Node
	// NetAdversary drops directed messages each round.
	NetAdversary = netsim.Adversary
	// NetTrace records a network execution.
	NetTrace = netsim.Trace
	// NetReport is the network consensus property check.
	NetReport = netsim.Report
)

// Graph generators.
var (
	// NewGraph creates an empty graph with n vertices.
	NewGraph = graph.New
	// Cycle returns C_n.
	Cycle = graph.Cycle
	// PathGraph returns P_n.
	PathGraph = graph.Path
	// Complete returns K_n.
	Complete = graph.Complete
	// CompleteBipartite returns K_{a,b}.
	CompleteBipartite = graph.CompleteBipartite
	// Grid returns the w×h grid.
	Grid = graph.Grid
	// Hypercube returns Q_d.
	Hypercube = graph.Hypercube
	// Barbell returns two K_k cliques joined by the given number of
	// bridges — the c(G) < deg(G) family of the open question settled by
	// Theorem V.1.
	Barbell = graph.Barbell
	// Theta returns the two-hub multi-path graph.
	Theta = graph.Theta
	// RandomGraph returns a connected G(n,p) sample.
	RandomGraph = graph.Random
	// Wheel returns W_n (a hub joined to a cycle).
	Wheel = graph.Wheel
	// Star returns K_{1,n−1}.
	Star = graph.Star
	// Petersen returns the Petersen graph.
	Petersen = graph.Petersen
	// BinaryTree returns the complete binary tree on n vertices.
	BinaryTree = graph.BinaryTree
	// ParseEdgeList builds a graph from "a-b,c-d,…" notation.
	ParseEdgeList = graph.ParseEdgeList
)

// VertexConnectivity returns κ(G) (for comparison with c(G): Theorem V.1
// is about edge connectivity; Whitney's inequality gives κ ≤ c ≤ δ).
func VertexConnectivity(g *Graph) int { return g.VertexConnectivity() }

// NetworkSolvable answers Theorem V.1: consensus on G with at most f
// message losses per round is solvable iff f < c(G).
func NetworkSolvable(g *Graph, f int) bool {
	return g.Connected() && f < g.EdgeConnectivity()
}

// EdgeConnectivity returns c(G).
func EdgeConnectivity(g *Graph) int { return g.EdgeConnectivity() }

// NetAnalysisRequest selects an n-process bounded-round solvability
// computation for the unified engine entry point: K_N (Graph nil) or an
// arbitrary topology, at a fixed horizon or as an incremental MinRounds
// search. See nchain.Request for all fields.
type NetAnalysisRequest = nchain.Request

// NetAnalysisReport is the outcome of AnalyzeNet, with aggregated
// EngineStats for the whole request.
type NetAnalysisReport = nchain.Report

// AnalyzeNet is the context-first engine entry point for n-process
// bounded-round analysis (the exhaustive, all-algorithms form of
// Theorem V.1 on small instances).
func AnalyzeNet(ctx context.Context, req NetAnalysisRequest) (NetAnalysisReport, error) {
	return nchain.Analyze(ctx, req)
}

// MinCut returns a minimum edge cut with connected sides (the (A, B, C)
// partition of the Theorem V.1 proof).
func MinCut(g *Graph) (Cut, bool) { return g.MinCut() }

// NewFloodNodes builds the flooding consensus nodes (decide min after n−1
// rounds) — the possibility half of Theorem V.1 for f < c(G).
func NewFloodNodes(g *Graph) []Node { return netconsensus.NewFloodNodes(g) }

// NewCutTwoPhaseNodes builds Algorithm 4: designated cut endpoints run
// A_w across the cut, then broadcast inside the loss-free sides.
func NewCutTwoPhaseNodes(g *Graph, cut Cut, witness Source) []Node {
	return netconsensus.NewCutTwoPhaseNodes(g, cut, witness)
}

// NewEmulation lifts a network algorithm to a two-process algorithm
// (Algorithms 2/3): the process hosts one connected side of the cut.
func NewEmulation(g *Graph, cut Cut, makeNode func() Node) Process {
	return netconsensus.NewEmulation(g, cut, makeNode)
}

// RunNetwork executes nodes on a graph under a network adversary.
func RunNetwork(g *Graph, nodes []Node, inputs []Value, adv NetAdversary, maxRounds int) NetTrace {
	return netsim.Run(g, nodes, inputs, adv, maxRounds)
}

// CheckNetwork verifies uniform consensus on a network trace.
func CheckNetwork(t NetTrace) NetReport { return netsim.Check(t) }

// NoDrops is the failure-free adversary.
func NoDrops() NetAdversary { return netsim.NoDrops{} }

// RandomLossAdversarySeed drops up to f random directed messages per
// round from a private source derived from seed. Two adversaries built
// from the same seed play identical drop schedules, which is what chaos
// replay and the -seed CLI flags rely on; nothing in the library ever
// draws from the global math/rand state.
func RandomLossAdversarySeed(f int, seed int64) NetAdversary {
	return netsim.RandomF{F: f, Rng: rand.New(rand.NewSource(seed))}
}

// CutAdversary plays the Γ_C scheme of the impossibility proof, driven by
// a two-process scenario through ρ⁻¹: 'w' drops all SideA→SideB cut
// messages, 'b' all SideB→SideA.
func CutAdversary(cut Cut, src Source) NetAdversary {
	return netsim.CutScenario{Cut: cut, Src: src}
}

// TargetedCutAdversary drops f fixed cut edges A→B per round (the meanest
// budget-respecting adversary).
func TargetedCutAdversary(cut Cut, f int) NetAdversary {
	return netsim.TargetedCut{Cut: cut, F: f}
}

// ConstantScenario returns l^ω.
func ConstantScenario(l Letter) Scenario { return omission.Constant(l) }

package nchain

import (
	"fmt"

	"repro/internal/graph"
)

// directedEdges enumerates the directed edges of g in a fixed order.
func directedEdges(g *graph.Graph) []graph.DirEdge {
	var out []graph.DirEdge
	for _, e := range g.Edges() {
		out = append(out, graph.DirEdge{From: e.U, To: e.V}, graph.DirEdge{From: e.V, To: e.U})
	}
	return out
}

// dirIndex locates a directed edge in the fixed order (linear scan; the
// graphs here are tiny).
func dirIndex(dir []graph.DirEdge, from, to int) int {
	for i, d := range dir {
		if d.From == from && d.To == to {
			return i
		}
	}
	panic(fmt.Sprintf("nchain: directed edge %d→%d not in graph", from, to))
}

// graphPatterns enumerates the loss patterns of g with at most f drops,
// as bitmasks over the directed-edge order (see patternsUpTo for the
// combinatorial generation and its representation limit).
func graphPatterns(g *graph.Graph, f int) []LossPattern {
	return patternsUpTo(2*g.NumEdges(), f)
}

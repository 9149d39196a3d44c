package chaos

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/netconsensus"
	"repro/internal/netsim"
)

func floodNodes(n int) func() []netsim.Node {
	return func() []netsim.Node {
		nodes := make([]netsim.Node, n)
		for i := range nodes {
			nodes[i] = &netconsensus.FloodMin{}
		}
		return nodes
	}
}

// TestNetworkCampaignFloodClean runs flooding consensus on several graphs
// under seeded random injectors within the Theorem V.1 budget f = c(G)−1;
// both runners must come back with zero violations and zero leaked
// goroutines.
func TestNetworkCampaignFloodClean(t *testing.T) {
	execs := 300
	if testing.Short() {
		execs = 30
	}
	graphs := []*graph.Graph{graph.Complete(4), graph.Cycle(5), graph.CompleteBipartite(2, 3)}
	before := runtime.NumGoroutine()
	for _, g := range graphs {
		for _, goroutines := range []bool{false, true} {
			rep, err := RunNetworkCampaignCtx(context.Background(), NetConfig{
				Graph:      g,
				NewNodes:   floodNodes(g.N()),
				Executions: execs,
				Seed:       int64(g.N()) * 1315423911,
				Goroutines: goroutines,
				Deadline:   30 * time.Second,
			})
			if err != nil {
				t.Fatalf("%s goroutines=%v: %v", g.Name(), goroutines, err)
			}
			if !rep.OK() {
				t.Errorf("%s goroutines=%v:\n%s", g.Name(), goroutines, rep)
			}
		}
	}
	checkNoLeakedGoroutines(t, before)
}

// TestNetworkCampaignRejectsUnsolvableBudget: f ≥ c(G) admits a partition
// and consensus is unsolvable (Theorem V.1) — the campaign refuses to
// pretend otherwise.
func TestNetworkCampaignRejectsUnsolvableBudget(t *testing.T) {
	g := graph.Cycle(4) // c(G) = 2
	_, err := RunNetworkCampaignCtx(context.Background(), NetConfig{
		Graph:             g,
		NewNodes:          floodNodes(4),
		MaxLossesPerRound: 2,
	})
	if err == nil {
		t.Fatal("campaign accepted a budget at the edge connectivity")
	}
	if !strings.Contains(err.Error(), "unsolvable") {
		t.Fatalf("error should cite unsolvability: %v", err)
	}
}

// TestNetworkCampaignRefusesDisconnectedGraph: on a graph with c(G) = 0
// no budget is within Theorem V.1, so the campaign refuses it rather
// than run the default budget c(G)−1 = −1 into the drop sampler.
func TestNetworkCampaignRefusesDisconnectedGraph(t *testing.T) {
	oneEdge := graph.New("one-edge", 3)
	oneEdge.AddEdge(0, 1)
	for _, g := range []*graph.Graph{graph.New("two-isolated", 2), oneEdge} {
		for _, f := range []int{0, 1} {
			_, err := RunNetworkCampaignCtx(context.Background(), NetConfig{
				Graph:             g,
				NewNodes:          floodNodes(g.N()),
				Executions:        5,
				MaxLossesPerRound: f,
			})
			if err == nil || !strings.Contains(err.Error(), "Theorem V.1") {
				t.Fatalf("%s f=%d: err = %v, want a Theorem V.1 refusal", g.Name(), f, err)
			}
		}
	}
}

// panicNode panics inside Send at a given round; otherwise it floods.
type panicNode struct {
	netconsensus.FloodMin
	round int
}

func (p *panicNode) Send(r int) map[int]netsim.Message {
	if r == p.round {
		panic("injected fault: node send exploded")
	}
	return p.FloodMin.Send(r)
}

// TestPanicIsolationNetwork is the acceptance check that a node panicking
// mid-round fails only its own trace: the goroutine runner records a
// crash diagnostic for that node, every other node still decides, and the
// test process survives. Also checks the sequential runner agrees.
func TestPanicIsolationNetwork(t *testing.T) {
	g := graph.Complete(4)
	newNodes := func() []netsim.Node {
		nodes := make([]netsim.Node, 4)
		for i := range nodes {
			if i == 2 {
				nodes[i] = &panicNode{round: 2}
			} else {
				nodes[i] = &netconsensus.FloodMin{}
			}
		}
		return nodes
	}
	inputs := []netsim.Value{3, 1, 0, 2}
	before := runtime.NumGoroutine()
	for _, goroutines := range []bool{true, false} {
		var ht netsim.HardenedTrace
		if goroutines {
			ht = netsim.RunGoroutinesHardened(context.Background(), g, newNodes(), inputs, netsim.NoDrops{}, g.N()+2)
		} else {
			ht = netsim.RunHardened(context.Background(), g, newNodes(), inputs, netsim.NoDrops{}, g.N()+2)
		}
		if len(ht.Crashes) != 1 {
			t.Fatalf("goroutines=%v: crashes = %v, want exactly node 2", goroutines, ht.Crashes)
		}
		c := ht.Crashes[0]
		if c.Node != 2 || c.Round != 2 {
			t.Fatalf("goroutines=%v: crash = %+v, want node 2 round 2", goroutines, c)
		}
		if !strings.Contains(c.Diag, "node send exploded") {
			t.Fatalf("goroutines=%v: diagnostic lost the panic value: %q", goroutines, c.Diag)
		}
		for i, d := range ht.Decisions {
			if i == 2 {
				continue
			}
			// Node 2 flooded its input in round 1 before crashing, so the
			// survivors still reach the true minimum.
			if d != 0 {
				t.Errorf("goroutines=%v: surviving node %d decided %v, want 0", goroutines, i, d)
			}
		}
	}
	checkNoLeakedGoroutines(t, before)
}

// TestNetworkCampaignReportsPanic runs the campaign over a fleet that
// always includes the panicking node and checks the violation is typed,
// stamped, and diagnostic-bearing.
func TestNetworkCampaignReportsPanic(t *testing.T) {
	g := graph.Complete(3)
	rep, err := RunNetworkCampaignCtx(context.Background(), NetConfig{
		Graph: g,
		NewNodes: func() []netsim.Node {
			return []netsim.Node{&netconsensus.FloodMin{}, &panicNode{round: 1}, &netconsensus.FloodMin{}}
		},
		AlgorithmName: "flood+panic",
		Executions:    3,
		Seed:          11,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Fatal("panicking node produced no violation")
	}
	v := rep.Violations[0]
	if v.Property != PropPanic {
		t.Fatalf("property = %s, want %s", v.Property, PropPanic)
	}
	if !strings.Contains(v.Detail, "node send exploded") {
		t.Fatalf("detail lost the diagnostic: %q", v.Detail)
	}
	if v.Seed == 0 && v.Execution == 0 {
		t.Error("violation carries no replay seed")
	}
}

// TestDeadlineEnforcementNetwork: a slow node trips the per-execution
// deadline in both runners without hanging the campaign.
func TestDeadlineEnforcementNetwork(t *testing.T) {
	g := graph.Complete(3)
	for _, goroutines := range []bool{false, true} {
		rep, err := RunNetworkCampaignCtx(context.Background(), NetConfig{
			Graph: g,
			NewNodes: func() []netsim.Node {
				return []netsim.Node{&slowNode{}, &netconsensus.FloodMin{}, &netconsensus.FloodMin{}}
			},
			AlgorithmName: "flood+sleeper",
			Executions:    1,
			MaxRounds:     1000,
			Deadline:      20 * time.Millisecond,
			Goroutines:    goroutines,
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK() {
			t.Fatalf("goroutines=%v: deadline did not fire", goroutines)
		}
		if got := rep.Violations[0].Property; got != PropDeadline {
			t.Fatalf("goroutines=%v: property = %s, want %s", goroutines, got, PropDeadline)
		}
	}
}

type slowNode struct{ netconsensus.FloodMin }

func (s *slowNode) Send(r int) map[int]netsim.Message {
	time.Sleep(40 * time.Millisecond)
	return s.FloodMin.Send(r)
}

// TestNetworkCampaignCancelBetweenExecutions mirrors the two-process
// cancellation test on the network runner: cancelling the campaign
// context from the node factory after N executions stops the sweep at
// exactly N, surfacing ctx.Err() with the partial report.
func TestNetworkCampaignCancelBetweenExecutions(t *testing.T) {
	const cancelAfter = 5
	g := graph.Complete(4)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	built := 0
	inner := floodNodes(g.N())
	rep, err := RunNetworkCampaignCtx(ctx, NetConfig{
		Graph: g,
		NewNodes: func() []netsim.Node {
			built++
			if built == cancelAfter {
				cancel()
			}
			return inner()
		},
		Executions: 10_000,
		Seed:       11,
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("campaign error = %v, want context.Canceled", err)
	}
	if rep == nil || rep.Executions != cancelAfter {
		t.Fatalf("partial report = %+v, want exactly %d executions", rep, cancelAfter)
	}
}

// TestNetworkCampaignCancelMidExecutionIsNotAViolation is the network
// form of TestCampaignCancelMidExecutionIsNotAViolation, on both runners.
func TestNetworkCampaignCancelMidExecutionIsNotAViolation(t *testing.T) {
	g := graph.Complete(4)
	for _, goroutines := range []bool{false, true} {
		for _, maxViolations := range []int{0, 1} {
			ctx, cancel := context.WithCancel(context.Background())
			built := 0
			inner := floodNodes(g.N())
			rep, err := RunNetworkCampaignCtx(ctx, NetConfig{
				Graph: g,
				NewNodes: func() []netsim.Node {
					if built++; built == 5 {
						cancel()
					}
					return inner()
				},
				Executions:    100,
				Seed:          4,
				Goroutines:    goroutines,
				MaxViolations: maxViolations,
			})
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("goroutines=%v cap=%d: campaign error = %v, want context.Canceled", goroutines, maxViolations, err)
			}
			if rep == nil || rep.Executions != 5 || !rep.OK() {
				t.Fatalf("goroutines=%v cap=%d: report = %v, want 5 executions and no violation", goroutines, maxViolations, rep)
			}
		}
	}
}

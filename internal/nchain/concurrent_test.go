package nchain

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/fullinfo"
	"repro/internal/graph"
)

// TestConcurrentScratchPoolMatchesSequential runs a mix of fixed-horizon
// and MinRounds requests over the (n, f, r) grid and the graph grid on
// eight goroutines that share one sync.Pool of fullinfo.Scratch arenas,
// exactly as the server's handlers do. Every report must carry the
// sequential reference's Analysis and equal, wall time aside, the report
// of the same request run alone on a fresh engine: neither scheduling
// nor arena reuse may leak into a report. Under -race this is the
// engine's concurrency coverage.
func TestConcurrentScratchPoolMatchesSequential(t *testing.T) {
	type job struct {
		name string
		req  Request
		want Analysis
		solo Report
	}
	var jobs []job
	add := func(name string, req Request, n, maxR int, ref func(r int) Analysis) {
		refs := make([]Analysis, maxR+1)
		for r := range refs {
			refs[r] = ref(r)
		}
		for r, a := range refs {
			req.Horizon = r
			bare := Analysis{N: n, F: req.F, Rounds: r}
			verdict := a
			if !a.Solvable {
				verdict = bare
			}
			found := bare
			for _, b := range refs[:r+1] {
				if b.Solvable {
					found = b
					break
				}
			}
			fixed, verdictOnly, minRounds := req, req, req
			verdictOnly.VerdictOnly = true
			minRounds.VerdictOnly, minRounds.MinRounds = true, true
			jobs = append(jobs,
				job{name: fmt.Sprintf("%s r=%d", name, r), req: fixed, want: a},
				job{name: fmt.Sprintf("%s r=%d verdict", name, r), req: verdictOnly, want: verdict},
				job{name: fmt.Sprintf("%s min≤%d", name, r), req: minRounds, want: found})
		}
	}
	for _, tc := range nfCases {
		n, f := tc.n, tc.f
		add(fmt.Sprintf("K%d f=%d", n, f), Request{N: n, F: f}, n, tc.maxR,
			func(r int) Analysis { return analyzeSequential(n, f, r) })
	}
	for _, tc := range graphCases {
		g, f := tc.g, tc.f
		add(fmt.Sprintf("%s f=%d", tc.name, f), Request{Graph: g, F: f}, g.N(), tc.r,
			func(r int) Analysis { return graphAnalyzeSequential(g, f, r) })
	}
	ctx := context.Background()
	for i := range jobs {
		jobs[i].solo = analyze(t, jobs[i].req)
	}

	pool := sync.Pool{New: func() any { return fullinfo.NewScratch() }}
	work := make(chan *job)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				scr := pool.Get().(*fullinfo.Scratch)
				req := j.req
				req.Engine = &fullinfo.Options{Scratch: scr}
				rep, err := Analyze(ctx, req)
				pool.Put(scr)
				if err != nil {
					t.Errorf("%s: %v", j.name, err)
					continue
				}
				if rep.Analysis != j.want {
					t.Errorf("%s: concurrent %+v != sequential %+v", j.name, rep.Analysis, j.want)
				}
				rep.Stats.WallNanos = j.solo.Stats.WallNanos
				if rep != j.solo {
					t.Errorf("%s: concurrent report %+v\n != solo report %+v", j.name, rep, j.solo)
				}
				if j.req.VerdictOnly && !rep.Solvable && rep.Stats.Configs != 0 {
					t.Errorf("%s: unsolvable verdict-only horizons must report no counts: %+v", j.name, rep.Stats)
				}
			}
		}()
	}
	for i := range jobs {
		work <- &jobs[i]
	}
	close(work)
	wg.Wait()
}

// TestVerdictOnlyReportIgnoresWorkers: a VerdictOnly network report must
// not depend on how many requests run beside it. Cycle-4 at f=1 r=2 runs
// alone, then as 2 and 4 concurrent requests drawing scratch arenas from
// one pool; wall time aside, every report must equal the lone one.
func TestVerdictOnlyReportIgnoresWorkers(t *testing.T) {
	req := Request{Graph: graph.Cycle(4), F: 1, Horizon: 2, VerdictOnly: true}
	want := analyze(t, req)
	pool := sync.Pool{New: func() any { return fullinfo.NewScratch() }}
	for _, workers := range []int{2, 4} {
		reps := make([]Report, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := range reps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				scr := pool.Get().(*fullinfo.Scratch)
				defer pool.Put(scr)
				r := req
				r.Engine = &fullinfo.Options{Scratch: scr}
				reps[w], errs[w] = Analyze(context.Background(), r)
			}()
		}
		wg.Wait()
		for w, rep := range reps {
			rep.Stats.WallNanos = want.Stats.WallNanos
			if errs[w] != nil || rep != want {
				t.Errorf("workers=%d #%d: %+v (err %v)\n != alone: %+v", workers, w, rep, errs[w], want)
			}
		}
	}
}

package chain

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/fullinfo"
	"repro/internal/omission"
	"repro/internal/scheme"
)

// TestConcurrentScratchPoolMatchesSequential runs a mix of fixed-horizon
// and MinRounds requests on eight goroutines that share one sync.Pool
// of fullinfo.Scratch arenas, exactly as the server's handlers do. Every
// report must carry the sequential reference's Analysis and equal,
// wall time aside, the report of the same request run alone on a fresh
// engine: neither scheduling nor arena reuse may leak into a report.
// Under -race this is the engine's concurrency coverage.
func TestConcurrentScratchPoolMatchesSequential(t *testing.T) {
	type job struct {
		name string
		req  Request
		want Analysis
		solo Report
	}
	var jobs []job
	add := func(name string, s *scheme.Scheme, maxR int) {
		refs := make([]Analysis, maxR+1)
		for r := range refs {
			refs[r] = analyzeSequential(s, r)
		}
		for r, ref := range refs {
			verdict := ref
			if !ref.Solvable {
				verdict = Analysis{Rounds: r}
			}
			found := Analysis{Rounds: r}
			for _, a := range refs[:r+1] {
				if a.Solvable {
					found = a
					break
				}
			}
			jobs = append(jobs,
				job{name: fmt.Sprintf("%s r=%d", name, r), req: Request{Scheme: s, Horizon: r}, want: ref},
				job{name: fmt.Sprintf("%s r=%d verdict", name, r), req: Request{Scheme: s, Horizon: r, VerdictOnly: true}, want: verdict},
				job{name: fmt.Sprintf("%s min≤%d", name, r), req: Request{Scheme: s, Horizon: r, MinRounds: true, VerdictOnly: true}, want: found})
		}
	}
	for _, name := range scheme.Names() {
		s, err := scheme.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		add(name, s, 5)
	}
	// S2-minus automata: Σ alphabet, so never symbolic — every horizon
	// runs on the enumerating engine.
	for _, sc := range []string{"wx(b.)", "(x)", "x.(wb)", "b(.)"} {
		add("S2\\"+sc, scheme.Minus("S2-minus", scheme.S2(), omission.MustScenario(sc)), 6)
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

// TestVerdictOnlyReportIgnoresWorkers: a VerdictOnly report must not
// depend on how many requests run beside it. S2 (a Σ scheme, never
// symbolic) MinRounds to 7 runs alone, then as 2 and 4 concurrent
// requests drawing scratch arenas from one pool; wall time aside, every
// report must equal the lone one.
func TestVerdictOnlyReportIgnoresWorkers(t *testing.T) {
	req := Request{Scheme: scheme.S2(), Horizon: 7, MinRounds: true, VerdictOnly: true}
	want := analyze(t, req)
	if want.Found || want.Stats.Configs != 0 {
		t.Errorf("S2 is never solvable, so no horizon may report counts: %+v", want)
	}
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

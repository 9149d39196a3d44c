// Command verdictbench is the repository's benchmark: it boots the real
// capserved node (internal/serve) or a coordinator over three nodes
// (internal/serve/cluster) in process on loopback, drives one named
// workload for a fixed time, checks every verdict against an
// independent oracle, and prints the end-to-end metrics — or, with
// -trace 1, the per-layer metrics of a traced run.
//
//	go run . -workload hot-reads -seed 1 -seconds 10 -trace 0 -root ..
//
// The last line of standard output is the machine-readable result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// See NOTES.md for the workloads, the metrics and how to read them.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// runBudget bounds a whole invocation, set-up and oracle included.
const runBudget = 170 * time.Second

// setupReps is how many times a run boots and warms its servers; setup_s
// is the median, and the last system serves the window. A set-up takes
// tens of milliseconds, so one scheduler hiccup is a large share of it;
// fifteen keep the median steady.
const setupReps = 15

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("verdictbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: hot-reads, miss-writes, enum-heavy or cluster-mixed")
	seed := fs.Int64("seed", 1, "workload seed: the same seed sends the same requests")
	seconds := fs.Int("seconds", 10, "length of the measured window")
	traceFlag := fs.Int("trace", 0, "1 runs the traced run and prints the per-layer metrics")
	root := fs.String("root", ".", "checkout root; scratch files and spans go under <root>/.bench_build")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "verdictbench: need -workload <name>, -seconds ≥ 1 and -trace 0|1:", err)
		return 2
	}
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	opt := options{seed: *seed, dur: time.Duration(*seconds) * time.Second, trace: *traceFlag == 1, root: *root}
	rep, res, err := execute(ctx, w, opt)
	if rep != nil {
		rep.Env = describeEnv(*root, *seed, *seconds, opt.trace)
		b, _ := json.MarshalIndent(rep, "", "  ") // the report holds only marshalable values
		fmt.Fprintf(stdout, "%s\n", b)
	}
	if err != nil {
		fmt.Fprintln(stderr, "verdictbench:", err)
		return 1
	}
	b, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}

type options struct {
	seed  int64
	dur   time.Duration
	trace bool
	root  string
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the human-readable account printed before the result.
type report struct {
	Workload string            `json:"workload"`
	Why      string            `json:"why"`
	Loop     string            `json:"loop"`
	Env      environment       `json:"env"`
	WallS    float64           `json:"wall_s"`
	Calls    int               `json:"calls"`
	Items    int               `json:"items"`
	Failed   int               `json:"failed"`
	EndToEnd map[string]metric `json:"end_to_end"`
	Singles  summary           `json:"singles"`
	Batches  summary           `json:"batches"`
	Lag      *summary          `json:"open_loop_lag,omitempty"`
	Setup    setupSpread       `json:"setup"`
	OracleS  float64           `json:"oracle_s"` // judging the window's new questions, after it
	// StealShare is the share of machine CPU time the host stole
	// during the window (/proc/stat); high values mean a noisy run.
	StealShare float64           `json:"cpu_steal_share"`
	Checks     []string          `json:"validity_checks"`
	Errors     []string          `json:"errors,omitempty"`
	Layers     map[string]metric `json:"per_layer,omitempty"`
	Spans      string            `json:"spans_file,omitempty"`
}

type setupSpread struct {
	N       int     `json:"n"`
	MedianS float64 `json:"median_s"`
	MinS    float64 `json:"min_s"`
	MaxS    float64 `json:"max_s"`
}

// execute runs one workload: set-up, the measured window, the oracle,
// the validity checks and, when tracing, the per-layer replays. A nil
// error with Correct=false means the servers gave wrong verdicts.
func execute(ctx context.Context, w *workload, opt options) (*report, *result, error) {
	nproc := runtime.GOMAXPROCS(0)
	work := filepath.Join(opt.root, ".bench_build", "runs")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, nil, err
	}
	tmp, err := os.MkdirTemp(work, w.name+"-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(tmp)

	sys, ld, setups, err := setUp(ctx, w, tmp, nproc)
	if err != nil {
		return nil, nil, err
	}
	defer sys.stop()
	defer ld.close()

	rep := &report{Workload: w.name, Why: w.why, Loop: fmt.Sprintf("closed, %d workers", nproc)}
	if w.openRate > 0 {
		rep.Loop = fmt.Sprintf("open, %.0f calls/s over ≤%d connections", w.openRate, nproc)
	}
	// The oracle answers the warmed questions now; replies to them are
	// judged as they arrive, replies to new questions after the window.
	known, undecided := buildOracle(ctx, w.warm(), nproc)
	if len(undecided) > 0 {
		return nil, nil, fmt.Errorf("oracle cannot decide the warm set: %v", undecided)
	}
	st := &stream{next: w.gen(opt.seed)}
	window := func(d time.Duration) (*tally, time.Duration) {
		senders := nproc
		if w.openRate > 0 {
			senders = openLoopSenders
		}
		ts := make([]tally, senders)
		for i := range ts {
			ts[i].t0 = time.Now()
		}
		out := func(i int, r record) { ts[i].add(r, known) }
		var wall time.Duration
		if w.openRate > 0 {
			wall = openLoop(ctx, ld, st, w.openRate, d, out)
		} else {
			wall = closedLoop(ctx, ld, st, nproc, d, out)
		}
		t := merge(ts)
		t.seconds = t.seconds[:min(len(t.seconds), int(d/time.Second))] // whole seconds only
		return t, wall
	}

	before, err := sys.scrape()
	if err != nil {
		return nil, nil, err
	}
	steal0, ticks0 := cpuTicks()
	var total *tally
	var wall time.Duration
	var lr *layerRun
	if !opt.trace {
		total, wall = window(opt.dur)
	} else {
		// The traced run measures half its window untraced and half
		// traced; the difference is the tracing overhead.
		plain, plainWall := window(opt.dur / 2)
		lr = &layerRun{sys: sys, ld: ld, tr: newTracer(), dir: tmp, nproc: nproc}
		lr.plainRate = float64(plain.items) / plainWall.Seconds()
		lr.plainP50 = medianDur(plain.singles)
		if lr.before, err = sys.scrape(); err != nil {
			return nil, nil, err
		}
		ld.tr = lr.tr
		stop := sampleQueue(sys, &lr.queuedPeak)
		lr.t, lr.wall = window(opt.dur - opt.dur/2)
		stop()
		ld.tr = nil
		total, wall = merge([]tally{*plain, *lr.t}), plainWall+lr.wall
		total.seconds = append(plain.seconds, lr.t.seconds...) // one after the other, not overlaid
	}
	after, err := sys.scrape()
	if err != nil {
		return nil, nil, err
	}
	rss := peakRSSMiB()
	steal1, ticks1 := cpuTicks()
	rep.StealShare = ratio(float64(steal1-steal0), float64(ticks1-ticks0))
	if ctx.Err() != nil {
		return nil, nil, fmt.Errorf("run budget exhausted during the window: %w", ctx.Err())
	}

	var fresh []query
	for _, p := range total.pending {
		fresh = append(fresh, p.q)
	}
	oracleStart := time.Now()
	o, undecided := buildOracle(ctx, fresh, nproc)
	total.judgePending(o, undecided)
	rep.OracleS = time.Since(oracleStart).Seconds()

	rep.WallS, rep.Calls, rep.Items, rep.Failed = wall.Seconds(), total.calls, total.items, total.bad
	for _, e := range total.examples {
		rep.Errors = append(rep.Errors, e.Error())
	}
	e2e := endToEndMetrics(total, wall, w.openRate > 0, setups, rss)
	rep.EndToEnd = e2e.vals
	rep.Singles = summarize(total.singles, 0.99)
	rep.Batches = summarize(total.batches, 0.99)
	rep.Setup = spreadOf(setups)
	if w.openRate > 0 {
		lag := summarize(total.lags, 0.99)
		rep.Lag = &lag
	}
	checks, broken := validate(w, before, after, total)
	rep.Checks = checks
	res := &result{Correct: total.bad == 0, Attempted: total.items, Failed: total.bad, Metrics: e2e.only(gated)}
	if broken != nil {
		return rep, nil, broken
	}
	if !opt.trace {
		return rep, res, nil
	}

	lr.after = after
	layers, err := measureLayers(ctx, lr)
	if err != nil {
		return rep, nil, fmt.Errorf("per-layer replay: %w", err)
	}
	rep.Layers = layers.vals
	spansDir := filepath.Join(opt.root, ".bench_build", "spans")
	if err := os.MkdirAll(spansDir, 0o755); err != nil {
		return rep, nil, err
	}
	rep.Spans = filepath.Join(spansDir, w.name+".jsonl")
	if err := lr.tr.write(rep.Spans); err != nil {
		return rep, nil, err
	}
	res.Metrics = layers.vals
	return rep, res, nil
}

// setUp boots and warms the workload's servers setupReps times and
// keeps the last system; each duration runs from boot to warmed.
func setUp(ctx context.Context, w *workload, tmp string, nproc int) (*system, *loader, []time.Duration, error) {
	var setups []time.Duration
	for i := 0; ; i++ {
		dir := filepath.Join(tmp, fmt.Sprintf("setup-%d", i))
		if err := os.Mkdir(dir, 0o755); err != nil {
			return nil, nil, nil, err
		}
		start := time.Now()
		sys, err := boot(w, dir)
		if err != nil {
			return nil, nil, nil, err
		}
		ld := newLoader(sys.url, nproc, nil)
		err = errors.Join(sys.ready(ctx, ld.hc), warm(ctx, ld, w.warm()))
		setups = append(setups, time.Since(start))
		if err != nil || i == setupReps-1 {
			if err != nil {
				ld.close()
				sys.stop()
				return nil, nil, nil, fmt.Errorf("set-up: %w", err)
			}
			return sys, ld, setups, nil
		}
		ld.close()
		sys.stop()
	}
}

// sampleQueue polls the nodes' heavy admission queues every 5ms into
// peak until the returned stop is called; stop waits for the poller.
func sampleQueue(sys *system, peak *int64) (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				*peak = max(*peak, sys.heavyQueued())
			}
		}
	}()
	return func() { close(done); <-exited }
}

func spreadOf(ds []time.Duration) setupSpread {
	d := newDist(ds)
	return setupSpread{N: len(d), MedianS: medianDur(ds).Seconds(), MinS: d[0].Seconds(), MaxS: d[len(d)-1].Seconds()}
}

// endToEndMetrics computes every end-to-end metric of the window.
// Closed-loop throughput and the medians are medians over the window's
// whole seconds;
// the p99s pool every sample and follow the tail rule (stats.go): a p99
// without ten samples beyond it reports the highest percentile that has
// them.
func endToEndMetrics(t *tally, wall time.Duration, open bool, setups []time.Duration, rss float64) *metricSet {
	m := newMetricSet(endToEnd)
	delivered := t.items - t.bad
	rate := (1 - ratio(float64(t.bad), float64(t.items))) * t.perSecond(func(s slice) float64 { return float64(s.items) })
	if open {
		// An open loop's per-second counts are its schedule and read the
		// same every run; the drain after the last due call is what varies.
		rate = float64(delivered) / wall.Seconds()
	}
	p50 := func(ds []time.Duration) float64 {
		if len(ds) == 0 {
			return -1
		}
		return ms(medianDur(ds))
	}
	m.set("items_per_s", rate)
	m.set("latency_p50_ms", t.perSecond(func(s slice) float64 { return p50(s.singles) }))
	m.set("latency_p99_ms", summarize(t.singles, 0.99).TailMs)
	m.set("batch_p50_ms", t.perSecond(func(s slice) float64 { return p50(s.batches) }))
	m.set("batch_p99_ms", summarize(t.batches, 0.99).TailMs)
	m.set("fail_ratio", ratio(float64(t.bad), float64(t.items)))
	m.set("resp_bytes_per_item", ratio(float64(t.bytes), float64(delivered)))
	m.set("rss_peak_mib", rss)
	m.set("setup_s", medianDur(setups).Seconds())
	return m
}

// Validity bounds. A run outside them is not measuring what its
// workload claims, and fails.
const (
	minSymbolicShare = 0.9   // miss-writes: rounds served by the interval walk
	maxSymbolicShare = 0.05  // enum-heavy: ≈ 0
	hitShareSlack    = 0.03  // cluster-mixed: coordinator hits vs the stated share
	maxLagP99        = 0.025 // cluster-mixed: generator lag p99, seconds
)

// validate checks the workload's claims against the counter deltas of
// the whole window; it returns every check made and an error naming
// the broken ones.
func validate(w *workload, b, a counters, t *tally) ([]string, error) {
	var checks, broken []string
	expect := func(ok bool, format string, args ...any) {
		s := fmt.Sprintf(format, args...)
		checks = append(checks, s)
		if !ok {
			broken = append(broken, s)
		}
	}
	hits, misses := a.node.CacheHits-b.node.CacheHits, a.node.CacheMisses-b.node.CacheMisses
	runs := a.stats.EngineRuns - b.stats.EngineRuns
	rounds := a.stats.RoundsAnalyzed - b.stats.RoundsAnalyzed
	share := ratio(float64(a.stats.SymbolicRounds-b.stats.SymbolicRounds), float64(rounds))
	switch w.name {
	case "hot-reads":
		expect(misses == 0 && hits > 0, "serve.cache_hit_ratio = 1 (hits %d, misses %d)", hits, misses)
		expect(runs == 0, "fullinfo.engine_runs = 0 (got %d)", runs)
	case "miss-writes", "enum-heavy":
		expect(hits == 0, "serve.cache_hit_ratio = 0 (hits %d)", hits)
		expect(misses == int64(t.items), "every item misses (misses %d, items %d)", misses, t.items)
		if w.warmStore {
			stored := int64(a.node.WarmStored - b.node.WarmStored)
			expect(stored == misses, "serve.warm_stored = misses (stored %d, misses %d)", stored, misses)
		}
		if w.name == "miss-writes" {
			expect(share >= minSymbolicShare, "fullinfo.symbolic_round_share ≥ %.2f (got %.3f)", minSymbolicShare, share)
		} else {
			expect(share <= maxSymbolicShare, "fullinfo.symbolic_round_share ≤ %.2f (got %.3f)", maxSymbolicShare, share)
		}
	case "cluster-mixed":
		want := ratio(float64(t.hotItems), float64(t.items))
		ch, cm := a.coord.CacheHits-b.coord.CacheHits, a.coord.CacheMisses-b.coord.CacheMisses
		got := ratio(float64(ch), float64(ch+cm))
		expect(math.Abs(got-want) <= 0.005 && math.Abs(want-w.hitShare) <= hitShareSlack,
			"cluster.cache_hit_ratio %.3f = hot item share %.3f ≈ stated %.2f", got, want, w.hitShare)
		lag, _ := newDist(t.lags).tail(0.99)
		expect(lag.Seconds() <= maxLagP99, "open-loop lag p99 %.2fms ≤ %.0fms", ms(lag), maxLagP99*1000)
	}
	if len(broken) > 0 {
		return checks, fmt.Errorf("workload validity broken: %s", strings.Join(broken, "; "))
	}
	return checks, nil
}

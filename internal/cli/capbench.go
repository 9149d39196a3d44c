package cli

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	coordattack "repro"
	"repro/internal/serve"
	"repro/internal/serve/cluster"
)

// Capbench is the cluster load generator: an open-loop arrival process
// at a target RPS over a mixed query population (classification,
// bounded-round solvability, network solvability, and a "heavy" class
// of cache-busting unique automata), reporting p50/p95/p99 latency,
// shed rate, and — against a coordinator — hedge/failover rates scraped
// from /v1/stats.
//
// With -base it drives an external capserved or coordinator. Without
// -base it spins up a self-contained cluster (N in-process backends +
// one coordinator), measures a healthy phase, retunes the hedge trigger
// to half the measured healthy p99 (the "tail at scale" policy), makes
// one backend slow, and measures a degraded phase — the experiment
// behind BENCH_7.json. -p99-bar R fails the run (exit 1) if degraded
// p99 exceeds R x healthy p99.
//
// -churn adds a membership-churn phase (BENCH_8.json): the health
// prober is enabled, one backend is killed a quarter of the way into
// the phase and restarted at the halfway mark, and the report records
// the phase's availability (fraction of non-shed, non-error replies)
// plus the ejection/readmission counts the prober produced. The churn
// phase shares -p99-bar (churn p99 vs healthy p99) and adds
// -availability-bar as its own gate.
func Capbench(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("capbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	base := fs.String("base", "", "external target base URL (empty = self-contained 3-node cluster)")
	rps := fs.Float64("rps", 200, "target request rate per second (open loop)")
	duration := fs.Duration("duration", 4*time.Second, "measured duration of each phase")
	warmup := fs.Duration("warmup", 1*time.Second, "unmeasured warmup before the first phase")
	mixSpec := fs.String("mix", "solvable=2,classify=2,netsolve=2,heavy=4", "query-class weights")
	seed := fs.Int64("seed", 1, "workload seed (query choice and heavy-automaton generation)")
	out := fs.String("out", "", "write the JSON report here (default stdout)")
	nBackends := fs.Int("backends-n", 3, "self-contained mode: number of backend nodes")
	replicas := fs.Int("replicas", 2, "self-contained mode: replica candidates per keyed request")
	hedgeDelay := fs.Duration("hedge-delay", 25*time.Millisecond, "self-contained mode: initial hedge trigger")
	slowDelay := fs.Duration("slow-delay", 150*time.Millisecond, "self-contained mode: injected per-request delay on the slow backend (0 = skip degraded phase)")
	maxHorizon := fs.Int("max-horizon", 9, "largest horizon generated queries use")
	cacheEntries := fs.Int("cache", 0, "LRU cache entries (0 = the role default: 1024 per node, 4096 on the coordinator)")
	p99Bar := fs.Float64("p99-bar", 0, "fail if degraded/churn p99 > bar x healthy p99 (0 = report only)")
	churn := fs.Bool("churn", false, "self-contained mode: add a membership-churn phase — one backend is killed mid-phase, auto-ejected by the prober, restarted, and readmitted")
	availBar := fs.Float64("availability-bar", 0, "fail if churn-phase availability < bar (0 = report only)")
	batch := fs.Bool("batch", false, "add a batch-vs-single comparison phase over /v1/solve/batch")
	batchSize := fs.Int("batch-size", 16, "batch mode: items per /v1/solve/batch request")
	batchItems := fs.Int("batch-items", 512, "batch mode: total items each leg serves")
	batchWorkers := fs.Int("batch-workers", 8, "batch mode: closed-loop workers per leg")
	batchBar := fs.Float64("batch-bar", 0, "fail unless batch items/sec >= bar x single-item qps at equal-or-better p99 (0 = report only)")
	wireLeg := fs.Bool("wire", false, "add a binary-vs-JSON batch encoding comparison over /v1/solve/batch")
	wireBar := fs.Float64("wire-bar", 0, "fail unless binary batch items/sec >= bar x JSON batch items/sec at equal-or-better p99 (0 = report only)")
	wireBytesBar := fs.Float64("wire-bytes-bar", 0, "fail unless binary bytes/item <= bar x JSON bytes/item (0 = report only)")
	memProfile := fs.String("memprofile", "", "write a heap/alloc pprof profile here at exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mix, err := parseMix(*mixSpec)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *churn && *base != "" {
		fmt.Fprintln(stderr, "capbench: -churn needs the self-contained cluster (drop -base)")
		return 2
	}
	if *churn && *nBackends < 2 {
		fmt.Fprintln(stderr, "capbench: -churn needs at least 2 backends")
		return 2
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The default transport keeps only 2 idle conns per host; under the
	// bench's concurrency that measures TCP dial churn, not the server.
	transport := &http.Transport{
		MaxIdleConns:        512,
		MaxIdleConnsPerHost: 512,
		IdleConnTimeout:     90 * time.Second,
	}
	b := &bench{
		client:     &http.Client{Timeout: 15 * time.Second, Transport: transport},
		mix:        mix,
		maxHorizon: *maxHorizon,
		names:      coordattack.SchemeNames(),
	}

	report := benchReport{
		Generator: "capbench",
		Config: benchConfig{
			TargetRPS:   *rps,
			DurationSec: duration.Seconds(),
			Mix:         *mixSpec,
			Seed:        *seed,
			MaxHorizon:  *maxHorizon,
		},
	}

	if *base != "" {
		b.base = strings.TrimSuffix(*base, "/")
		report.Config.Target = b.base
		_ = b.runPhase(ctx, "warmup", *rps, *warmup, rand.New(rand.NewSource(*seed^0x5eed)))
		report.Phases = append(report.Phases,
			b.runPhase(ctx, "healthy", *rps, *duration, rand.New(rand.NewSource(*seed))))
	} else {
		lcCfg := localClusterConfig{
			Backends:     *nBackends,
			Replicas:     *replicas,
			HedgeDelay:   *hedgeDelay,
			CacheEntries: *cacheEntries,
			MaxHorizon:   *maxHorizon,
		}
		if *churn {
			// Fast probes so ejection and readmission both land well
			// inside the kill window (a quarter of the phase), but with a
			// generous timeout: under full load a saturated box can delay
			// even a trivial /healthz reply, and a slow answer must not
			// read as a dead backend.
			lcCfg.ProbeInterval = 100 * time.Millisecond
			lcCfg.ProbeTimeout = 2 * time.Second
		}
		lc, err := startLocalCluster(lcCfg)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		defer lc.stop()
		b.base = lc.coURL
		report.Config.Target = fmt.Sprintf("self-contained: %d backends, %d replicas", *nBackends, *replicas)
		report.Config.Backends = *nBackends
		report.Config.Replicas = *replicas

		_ = b.runPhase(ctx, "warmup", *rps, *warmup, rand.New(rand.NewSource(*seed^0x5eed)))
		healthy := b.runPhase(ctx, "healthy", *rps, *duration, rand.New(rand.NewSource(*seed)))
		report.Phases = append(report.Phases, healthy)

		if *slowDelay > 0 {
			// Retune hedging to the measured tail: trigger at half the
			// healthy p99 so a hedge costs little extra load but caps the
			// slow shard's contribution to the degraded tail.
			tuned := time.Duration(healthy.P99Ms / 2 * float64(time.Millisecond))
			tuned = min(max(tuned, time.Millisecond), 250*time.Millisecond)
			lc.co.SetHedgeDelay(tuned)
			report.Config.TunedHedgeDelayMs = float64(tuned) / float64(time.Millisecond)
			report.Config.SlowDelayMs = float64(*slowDelay) / float64(time.Millisecond)
			lc.slow.delay.Store(int64(*slowDelay))
			degraded := b.runPhase(ctx, "one-slow-backend", *rps, *duration,
				rand.New(rand.NewSource(*seed+1)))
			report.Phases = append(report.Phases, degraded)
			if healthy.P99Ms > 0 {
				report.DegradedP99Ratio = degraded.P99Ms / healthy.P99Ms
			}
			report.P99Bar = *p99Bar
			if *p99Bar > 0 {
				ok := report.DegradedP99Ratio <= *p99Bar
				report.BarOK = &ok
			}
		}

		if *churn {
			report.Config.Churn = true
			lc.slow.delay.Store(0) // churn measures membership, not slowness
			preChurn := b.scrapeStats()
			killAt, restartAt := *duration/4, *duration/2
			go func() {
				time.Sleep(killAt)
				lc.kill.down.Store(true)
				time.Sleep(restartAt - killAt)
				lc.kill.down.Store(false)
			}()
			churnPh := b.runPhase(ctx, "churn", *rps, *duration,
				rand.New(rand.NewSource(*seed+2)))

			// Give the prober a moment to finish readmitting, then count
			// the whole disruption (eject may land inside the phase and
			// readmit just after it).
			convergeBy := time.Now().Add(5 * time.Second)
			for {
				st := b.scrapeStats()
				churnPh.Ejections = st.Membership.Ejections - preChurn.Membership.Ejections
				churnPh.Readmissions = st.Membership.Readmissions - preChurn.Membership.Readmissions
				report.ChurnConverged = st.Membership.Routable == *nBackends &&
					churnPh.Readmissions >= churnPh.Ejections && churnPh.Ejections > 0
				if report.ChurnConverged || time.Now().After(convergeBy) {
					break
				}
				time.Sleep(100 * time.Millisecond)
			}
			report.Phases = append(report.Phases, churnPh)

			if healthy.P99Ms > 0 {
				report.ChurnP99Ratio = churnPh.P99Ms / healthy.P99Ms
			}
			report.P99Bar = *p99Bar
			report.AvailabilityBar = *availBar
			if *p99Bar > 0 || *availBar > 0 {
				ok := report.ChurnConverged
				if *p99Bar > 0 && report.ChurnP99Ratio > *p99Bar {
					ok = false
				}
				if *availBar > 0 && churnPh.Availability < *availBar {
					ok = false
				}
				report.ChurnOK = &ok
			}
		}
	}

	if *batch {
		cmp := b.runBatchComparison(ctx, *batchItems, *batchSize, *batchWorkers,
			rand.New(rand.NewSource(*seed+3)))
		cmp.BatchBar = *batchBar
		if *batchBar > 0 {
			ok := cmp.SpeedupX >= *batchBar && cmp.BatchP99Ms <= cmp.SingleP99Ms &&
				cmp.SingleErrors == 0 && cmp.BatchErrors == 0
			cmp.BatchOK = &ok
		}
		report.Batch = &cmp
	}

	if *wireLeg {
		wc := b.runWireComparison(ctx, *batchItems, *batchSize, *batchWorkers,
			rand.New(rand.NewSource(*seed+4)))
		wc.WireBar = *wireBar
		wc.WireBytesBar = *wireBytesBar
		if *wireBar > 0 || *wireBytesBar > 0 {
			ok := wc.JSONErrors == 0 && wc.BinaryErrors == 0 &&
				wc.BinaryP99Ms <= wc.JSONP99Ms
			if *wireBar > 0 && wc.SpeedupX < *wireBar {
				ok = false
			}
			if *wireBytesBar > 0 && wc.BytesRatio > *wireBytesBar {
				ok = false
			}
			wc.WireOK = &ok
		}
		report.Wire = &wc
	}

	if resp, err := b.client.Get(b.base + "/v1/stats"); err == nil {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if json.Valid(raw) {
			report.ClusterStats = raw
		}
	}

	enc, _ := json.MarshalIndent(report, "", "  ")
	enc = append(enc, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, enc, 0o644); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "capbench: report written to %s\n", *out)
	} else {
		stdout.Write(enc)
	}
	if report.BarOK != nil && !*report.BarOK {
		fmt.Fprintf(stderr, "capbench: degraded p99 is %.2fx healthy p99 (bar %.2fx)\n",
			report.DegradedP99Ratio, *p99Bar)
		return 1
	}
	if report.ChurnOK != nil && !*report.ChurnOK {
		fmt.Fprintf(stderr,
			"capbench: churn gate failed: p99 ratio %.2fx (bar %.2fx), availability %.4f (bar %.4f), converged=%v\n",
			report.ChurnP99Ratio, *p99Bar, churnAvailability(report), *availBar, report.ChurnConverged)
		return 1
	}
	if *memProfile != "" {
		if err := writeHeapProfile(*memProfile); err != nil {
			fmt.Fprintf(stderr, "capbench: %v\n", err)
		} else {
			fmt.Fprintf(stdout, "capbench: heap profile written to %s\n", *memProfile)
		}
	}
	if report.Batch != nil && report.Batch.BatchOK != nil && !*report.Batch.BatchOK {
		c := report.Batch
		fmt.Fprintf(stderr,
			"capbench: batch gate failed: %.2fx single qps (bar %.2fx), batch p99 %.2fms vs single p99 %.2fms, errors %d/%d\n",
			c.SpeedupX, c.BatchBar, c.BatchP99Ms, c.SingleP99Ms, c.SingleErrors, c.BatchErrors)
		return 1
	}
	if report.Wire != nil && report.Wire.WireOK != nil && !*report.Wire.WireOK {
		c := report.Wire
		fmt.Fprintf(stderr,
			"capbench: wire gate failed: %.2fx JSON items/sec (bar %.2fx), bytes ratio %.3f (bar %.3f), binary p99 %.2fms vs JSON p99 %.2fms, errors %d/%d\n",
			c.SpeedupX, c.WireBar, c.BytesRatio, c.WireBytesBar, c.BinaryP99Ms, c.JSONP99Ms, c.JSONErrors, c.BinaryErrors)
		return 1
	}
	return 0
}

// writeHeapProfile snapshots the heap (alloc_space/alloc_objects
// included) for artifact upload.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC() // flush recently freed objects into the profile
	return pprof.WriteHeapProfile(f)
}

// churnAvailability digs the churn phase's availability back out of the
// report for the failure message.
func churnAvailability(r benchReport) float64 {
	for _, ph := range r.Phases {
		if ph.Name == "churn" {
			return ph.Availability
		}
	}
	return 0
}

// --- report shapes ----------------------------------------------------

type benchConfig struct {
	Target            string  `json:"target"`
	TargetRPS         float64 `json:"targetRps"`
	DurationSec       float64 `json:"durationSec"`
	Mix               string  `json:"mix"`
	Seed              int64   `json:"seed"`
	MaxHorizon        int     `json:"maxHorizon"`
	Backends          int     `json:"backends,omitempty"`
	Replicas          int     `json:"replicas,omitempty"`
	TunedHedgeDelayMs float64 `json:"tunedHedgeDelayMs,omitempty"`
	SlowDelayMs       float64 `json:"slowDelayMs,omitempty"`
	Churn             bool    `json:"churn,omitempty"`
}

type benchClassStats struct {
	Requests int     `json:"requests"`
	OK       int     `json:"ok"`
	Shed     int     `json:"shed"`
	Errors   int     `json:"errors"`
	P50Ms    float64 `json:"p50Ms"`
	P99Ms    float64 `json:"p99Ms"`
}

type benchPhase struct {
	Name        string  `json:"name"`
	Requests    int     `json:"requests"`
	AchievedRPS float64 `json:"achievedRps"`
	OK          int     `json:"ok"`
	Shed        int     `json:"shed"`
	Errors      int     `json:"errors"`
	ShedRate    float64 `json:"shedRate"`
	// Availability is the fraction of requests answered successfully —
	// neither shed (429) nor failed (transport error or >= 400).
	Availability float64 `json:"availability"`
	P50Ms        float64 `json:"p50Ms"`
	P95Ms        float64 `json:"p95Ms"`
	P99Ms        float64 `json:"p99Ms"`
	MaxMs        float64 `json:"maxMs"`

	// Coordinator-side deltas over the phase, from /v1/stats.
	Hedges    int64   `json:"hedges"`
	HedgeWins int64   `json:"hedgeWins"`
	Failovers int64   `json:"failovers"`
	HedgeRate float64 `json:"hedgeRate"` // hedges / keyed requests

	// Membership deltas over the phase (nonzero only under -churn).
	Ejections    int64 `json:"ejections,omitempty"`
	Readmissions int64 `json:"readmissions,omitempty"`

	Classes map[string]benchClassStats `json:"classes"`
}

type benchReport struct {
	Generator        string       `json:"generator"`
	Config           benchConfig  `json:"config"`
	Phases           []benchPhase `json:"phases"`
	DegradedP99Ratio float64      `json:"degradedP99Ratio,omitempty"`
	P99Bar           float64      `json:"p99Bar,omitempty"`
	BarOK            *bool        `json:"barOk,omitempty"`
	// Churn gates: p99 during churn relative to healthy, the phase's
	// availability bar, and whether the killed backend was ejected,
	// readmitted, and the ring converged back to full membership.
	ChurnP99Ratio   float64 `json:"churnP99Ratio,omitempty"`
	AvailabilityBar float64 `json:"availabilityBar,omitempty"`
	ChurnConverged  bool    `json:"churnConverged,omitempty"`
	ChurnOK         *bool   `json:"churnOk,omitempty"`
	// Batch is the batch-vs-single comparison (-batch).
	Batch *batchComparison `json:"batchComparison,omitempty"`
	// Wire is the binary-vs-JSON batch encoding comparison (-wire).
	Wire *wireComparison `json:"wireComparison,omitempty"`
	// ClusterStats is the target's final /v1/stats snapshot, embedded
	// verbatim so the report artifact carries the shard-level picture.
	ClusterStats json.RawMessage `json:"clusterStats,omitempty"`
}

// --- load generation --------------------------------------------------

type benchSample struct {
	class  string
	status int
	failed bool
	dur    time.Duration
}

type bench struct {
	base       string
	client     *http.Client
	mix        []mixEntry
	maxHorizon int
	names      []string
}

type mixEntry struct {
	name   string
	weight int
}

func parseMix(spec string) ([]mixEntry, error) {
	var mix []mixEntry
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, w, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("capbench: bad mix entry %q (want class=weight)", part)
		}
		n, err := strconv.Atoi(w)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("capbench: bad mix weight %q", part)
		}
		switch name {
		case "solvable", "classify", "netsolve", "heavy":
		default:
			return nil, fmt.Errorf("capbench: unknown query class %q", name)
		}
		if n > 0 {
			mix = append(mix, mixEntry{name: name, weight: n})
		}
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("capbench: mix selects no classes")
	}
	return mix, nil
}

func (b *bench) pickClass(rng *rand.Rand) string {
	total := 0
	for _, m := range b.mix {
		total += m.weight
	}
	r := rng.Intn(total)
	for _, m := range b.mix {
		if r < m.weight {
			return m.name
		}
		r -= m.weight
	}
	return b.mix[len(b.mix)-1].name
}

var benchGraphs = []string{
	`{"graph":"cycle","n":4,"f":1,"rounds":%d}`,
	`{"graph":"cycle","n":5,"f":1,"rounds":%d}`,
	`{"graph":"complete","n":4,"f":1,"rounds":%d}`,
	`{"graph":"path","n":4,"f":1,"rounds":%d}`,
	`{"graph":"star","n":5,"f":1,"rounds":%d}`,
}

// buildQuery picks one concrete request for the class. The heavy class
// subtracts a random ultimately periodic scenario from S2, producing an
// automaton (and hence cache key) almost surely never seen before —
// every heavy query is a real engine run on some backend.
func (b *bench) buildQuery(class string, rng *rand.Rand) (path, body string) {
	switch class {
	case "classify":
		return "/v1/classify", fmt.Sprintf(`{"scheme":%q}`, b.names[rng.Intn(len(b.names))])
	case "solvable":
		h := 1 + rng.Intn(b.maxHorizon)
		return "/v1/solvable", fmt.Sprintf(`{"scheme":%q,"horizon":%d}`,
			b.names[rng.Intn(len(b.names))], h)
	case "netsolve":
		return "/v1/net/solvable", fmt.Sprintf(benchGraphs[rng.Intn(len(benchGraphs))], 1+rng.Intn(3))
	default: // heavy
		const sym = ".wb"
		word := make([]byte, 5)
		for i := range word {
			word[i] = sym[rng.Intn(len(sym))]
		}
		h := max(b.maxHorizon-2, 1) + rng.Intn(3)
		h = min(h, b.maxHorizon)
		return "/v1/solvable", fmt.Sprintf(`{"scheme":"S2","minus":["%s(.)"],"horizon":%d}`, word, h)
	}
}

// runPhase drives the target open-loop: arrivals fire on a fixed clock
// regardless of completions, so a slow server accumulates in-flight
// work instead of silently throttling the offered load.
func (b *bench) runPhase(ctx context.Context, name string, rps float64, dur time.Duration, rng *rand.Rand) benchPhase {
	before := b.scrapeStats()
	interval := time.Duration(float64(time.Second) / rps)
	if interval <= 0 {
		interval = time.Millisecond
	}
	deadline := time.Now().Add(dur)
	tick := time.NewTicker(interval)
	defer tick.Stop()

	var (
		mu      sync.Mutex
		samples []benchSample
		wg      sync.WaitGroup
	)
	start := time.Now()
	for time.Now().Before(deadline) && ctx.Err() == nil {
		<-tick.C
		class := b.pickClass(rng)
		path, body := b.buildQuery(class, rng)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := b.one(ctx, class, path, body)
			mu.Lock()
			samples = append(samples, s)
			mu.Unlock()
		}()
	}
	elapsed := time.Since(start)
	wg.Wait()
	after := b.scrapeStats()

	ph := benchPhase{Name: name, Requests: len(samples), Classes: map[string]benchClassStats{}}
	if elapsed > 0 {
		ph.AchievedRPS = float64(len(samples)) / elapsed.Seconds()
	}
	var all []float64
	perClass := map[string][]float64{}
	for _, s := range samples {
		ms := float64(s.dur) / float64(time.Millisecond)
		all = append(all, ms)
		perClass[s.class] = append(perClass[s.class], ms)
		cs := ph.Classes[s.class]
		cs.Requests++
		switch {
		case s.status == http.StatusTooManyRequests:
			cs.Shed++
			ph.Shed++
		case s.failed || s.status >= 400:
			cs.Errors++
			ph.Errors++
		default:
			cs.OK++
			ph.OK++
		}
		ph.Classes[s.class] = cs
	}
	ph.P50Ms, ph.P95Ms, ph.P99Ms, ph.MaxMs = percentiles(all)
	for class, ms := range perClass {
		cs := ph.Classes[class]
		cs.P50Ms, _, cs.P99Ms, _ = percentiles(ms)
		ph.Classes[class] = cs
	}
	if len(samples) > 0 {
		ph.ShedRate = float64(ph.Shed) / float64(len(samples))
		ph.Availability = float64(ph.OK) / float64(len(samples))
	}
	ph.Hedges = after.Hedges - before.Hedges
	ph.HedgeWins = after.HedgeWins - before.HedgeWins
	ph.Failovers = after.Failovers - before.Failovers
	ph.Ejections = after.Membership.Ejections - before.Membership.Ejections
	ph.Readmissions = after.Membership.Readmissions - before.Membership.Readmissions
	if keyed := after.KeyedRequests - before.KeyedRequests; keyed > 0 {
		ph.HedgeRate = float64(ph.Hedges) / float64(keyed)
	}
	return ph
}

func (b *bench) one(ctx context.Context, class, path, body string) benchSample {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+path, strings.NewReader(body))
	if err != nil {
		return benchSample{class: class, failed: true, dur: time.Since(start)}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(req)
	if err != nil {
		return benchSample{class: class, failed: true, dur: time.Since(start)}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return benchSample{class: class, status: resp.StatusCode, dur: time.Since(start)}
}

type coordStats struct {
	KeyedRequests int64 `json:"keyedRequests"`
	Hedges        int64 `json:"hedges"`
	HedgeWins     int64 `json:"hedgeWins"`
	Failovers     int64 `json:"failovers"`
	Membership    struct {
		Epoch        int64 `json:"epoch"`
		Routable     int   `json:"routable"`
		Ejections    int64 `json:"ejections"`
		Readmissions int64 `json:"readmissions"`
	} `json:"membership"`
}

// scrapeStats reads the coordinator counters; against a bare backend
// (no hedge counters in its /v1/stats) the unknown fields simply stay
// zero, so deltas degrade to zero rather than erroring.
func (b *bench) scrapeStats() coordStats {
	var st coordStats
	resp, err := b.client.Get(b.base + "/v1/stats")
	if err != nil {
		return st
	}
	defer resp.Body.Close()
	json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&st)
	return st
}

func percentiles(ms []float64) (p50, p95, p99, maxv float64) {
	if len(ms) == 0 {
		return 0, 0, 0, 0
	}
	sorted := append([]float64(nil), ms...)
	sort.Float64s(sorted)
	at := func(q float64) float64 {
		i := int(q*float64(len(sorted))+0.5) - 1
		if i < 0 {
			i = 0
		}
		if i >= len(sorted) {
			i = len(sorted) - 1
		}
		return sorted[i]
	}
	return at(0.50), at(0.95), at(0.99), sorted[len(sorted)-1]
}

// --- self-contained cluster -------------------------------------------

// slowGate injects a per-request delay in front of a backend's /v1/
// surface — the "one slow shard" of the degraded phase. Zero delay is a
// passthrough.
type slowGate struct {
	delay atomic.Int64 // nanoseconds
}

func (g *slowGate) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if d := time.Duration(g.delay.Load()); d > 0 && strings.HasPrefix(r.URL.Path, "/v1/") {
			t := time.NewTimer(d)
			select {
			case <-t.C:
			case <-r.Context().Done():
				t.Stop()
				return
			}
		}
		h.ServeHTTP(w, r)
	})
}

// killGate simulates a crashed backend: while down, every connection
// that reaches the wrapped handler is severed without a reply, so the
// coordinator sees transport errors and failed health probes — exactly
// what a kill -9 of the process would produce, minus the ephemeral
// port churn a real restart adds.
type killGate struct {
	down atomic.Bool
}

func (g *killGate) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if g.down.Load() {
			if hj, ok := w.(http.Hijacker); ok {
				if conn, _, err := hj.Hijack(); err == nil {
					conn.Close()
					return
				}
			}
			panic(http.ErrAbortHandler)
		}
		h.ServeHTTP(w, r)
	})
}

type localClusterConfig struct {
	Backends     int
	Replicas     int
	HedgeDelay   time.Duration
	CacheEntries int
	MaxHorizon   int
	// ProbeInterval > 0 enables the coordinator's health prober (the
	// churn phase needs automatic ejection and readmission).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
}

type localCluster struct {
	servers []*http.Server
	lns     []net.Listener
	slow    *slowGate
	kill    *killGate
	co      *cluster.Coordinator
	coSrv   *http.Server
	coURL   string
}

// startLocalCluster boots cfg.Backends in-process capserved nodes (the
// first behind a slowGate, the last behind a killGate) plus a
// coordinator over them, all on ephemeral loopback ports.
func startLocalCluster(cfg localClusterConfig) (*localCluster, error) {
	quiet := func(string, ...any) {}
	lc := &localCluster{slow: &slowGate{}, kill: &killGate{}}
	var urls []string
	for i := 0; i < cfg.Backends; i++ {
		s := serve.New(serve.Config{
			RequestTimeout: 10 * time.Second,
			CacheEntries:   cfg.CacheEntries,
			MaxHorizon:     cfg.MaxHorizon,
			Logf:           quiet,
		})
		h := s.Handler()
		if i == 0 {
			h = lc.slow.wrap(h)
		}
		if i == cfg.Backends-1 && i > 0 {
			h = lc.kill.wrap(h)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			lc.stop()
			return nil, fmt.Errorf("capbench: backend %d: %w", i, err)
		}
		srv := &http.Server{Handler: h}
		go srv.Serve(ln)
		lc.servers = append(lc.servers, srv)
		lc.lns = append(lc.lns, ln)
		urls = append(urls, "http://"+ln.Addr().String())
	}
	co, err := cluster.New(cluster.Config{
		Backends:      urls,
		Replicas:      cfg.Replicas,
		HedgeDelay:    cfg.HedgeDelay,
		CacheEntries:  cfg.CacheEntries,
		ProbeInterval: cfg.ProbeInterval,
		ProbeTimeout:  cfg.ProbeTimeout,
		Logf:          quiet,
	})
	if err != nil {
		lc.stop()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		lc.stop()
		return nil, err
	}
	lc.co = co
	lc.coSrv = &http.Server{Handler: co.Handler()}
	go lc.coSrv.Serve(ln)
	lc.lns = append(lc.lns, ln)
	lc.coURL = "http://" + ln.Addr().String()
	return lc, nil
}

func (lc *localCluster) stop() {
	if lc.coSrv != nil {
		lc.coSrv.Close()
	}
	if lc.co != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		lc.co.Shutdown(ctx)
		cancel()
	}
	for _, srv := range lc.servers {
		srv.Close()
	}
}

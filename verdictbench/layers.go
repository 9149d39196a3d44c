package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"time"

	ca "repro"
	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/serve/wire"
)

// layerRun is what the per-layer replay needs from a traced window.
type layerRun struct {
	sys           *system
	ld            *loader
	tr            *tracer
	t             *tally // the traced window
	wall          time.Duration
	before, after counters // scrapes around the traced window
	queuedPeak    int64    // deepest heavy admission queue seen
	plainRate     float64  // items/s of the untraced half
	plainP50      time.Duration
	dir           string // scratch directory for the warm-store replay
	nproc         int
}

// replay budgets: after the window, each layer gets a sample of the
// run's inputs, bounded in count and in time.
const (
	sampleQueries = 40
	layerBudget   = time.Second
)

// measureLayers computes every per-layer metric of a traced run.
func measureLayers(ctx context.Context, lr *layerRun) (*metricSet, error) {
	m := newMetricSet(perLayer)
	var singles []*call
	for _, c := range lr.t.recent {
		if !c.batch {
			singles = append(singles, c)
		}
	}
	qs := lr.t.queries()
	chainQs, netQs := splitQueries(qs)

	// serve edge: the run's latest singles through Handler().ServeHTTP.
	handler := replayHandler(lr.tr, lr.sys.front, singles)
	hd := newDist(handler)
	p50, _ := hd.at(0.5)
	p99, _ := hd.tail(0.99)
	m.set("serve.handler_p50_us", us(p50))
	m.set("serve.handler_p99_us", us(p99))
	clientP50 := medianDur(lr.t.singles)
	m.set("serve.transport_share", 1-ratio(float64(p50), float64(clientP50)))
	m.set("serve.resolve_us", us(timeEach(lr.tr, "serve.resolve", qs, resolve)))

	// serve cache and admission: counter deltas over the traced window.
	b, a := lr.before, lr.after
	hits, misses := a.node.CacheHits-b.node.CacheHits, a.node.CacheMisses-b.node.CacheMisses
	m.set("serve.cache_hit_ratio", ratio(float64(hits), float64(hits+misses)))
	m.set("serve.singleflight_shared", float64(a.node.SingleflightShared-b.node.SingleflightShared))
	m.set("serve.shed", float64(a.node.Shed-b.node.Shed))
	m.set("serve.timeouts", float64(a.node.Timeouts-b.node.Timeouts))
	m.set("serve.heavy_queued_peak", float64(lr.queuedPeak))
	m.set("serve.warm_stored", float64(a.node.WarmStored-b.node.WarmStored))
	appendUS, err := warmAppend(ctx, lr)
	if err != nil {
		return nil, err
	}
	m.set("serve.warm_append_us", appendUS)

	measureWire(m, lr.tr, lr.ld.samples.vals)

	// scheme and classify on fresh compiles of the run's automata.
	m.set("scheme.compile_us", us(timeEach(lr.tr, "scheme.compile", chainQs, func(q query) { _, _ = q.scheme() })))
	m.set("scheme.key_us", us(timeKeys(lr.tr, chainQs)))
	m.set("classify.classify_us", us(timeEach(lr.tr, "classify.classify", chainQs, func(q query) {
		if sch, err := q.scheme(); err == nil {
			_, _ = ca.Classify(sch) // the error is a verdict note, not a failure
		}
	})))

	// engines: direct Analyze/AnalyzeNet calls with an Observer.
	var obs []ca.EngineStats
	observe := func(st ca.EngineStats) { obs = append(obs, st) }
	m.set("chain.analyze_ms", ms(timeEach(lr.tr, "chain.analyze", chainQs, func(q query) {
		if q.kind == qClassify {
			q.kind, q.h = qFixed, 3
		}
		if sch, err := q.scheme(); err == nil {
			_, _ = ca.Analyze(ctx, ca.RoundsRequest{Scheme: sch, Horizon: q.h, MinRounds: q.kind == qMin,
				VerdictOnly: q.kind == qMin, Observer: observe})
		}
	})))
	m.set("nchain.analyze_ms", ms(timeEach(lr.tr, "nchain.analyze", netQs, func(q query) {
		if g, err := ca.ParseEdgeList("custom", q.edges); err == nil {
			_, _ = ca.AnalyzeNet(ctx, ca.NetAnalysisRequest{Graph: g, F: q.f, Horizon: q.h, VerdictOnly: true, Observer: observe})
		}
	})))
	engineStats(m, obs)
	sa, sb := a.stats, b.stats
	m.set("fullinfo.symbolic_round_share", ratio(float64(sa.SymbolicRounds-sb.SymbolicRounds), float64(sa.RoundsAnalyzed-sb.RoundsAnalyzed)))
	m.set("fullinfo.symbolic_fallbacks", float64(sa.SymbolicFallbacks-sb.SymbolicFallbacks))
	m.set("fullinfo.engine_runs", float64(sa.EngineRuns-sb.EngineRuns))
	m.set("fullinfo.busy_share", ratio(float64(sa.EngineWallNanos-sb.EngineWallNanos), float64(lr.wall)*float64(lr.nproc)))

	// cluster: coordinator deltas, and client time split by cache tier.
	ce, cs := a.coord, b.coord
	chits, cmiss := ce.CacheHits-cs.CacheHits, ce.CacheMisses-cs.CacheMisses
	hedges := ce.Hedges - cs.Hedges
	m.set("cluster.cache_hit_ratio", ratio(float64(chits), float64(chits+cmiss)))
	m.set("cluster.hedge_ratio", ratio(float64(hedges), float64(ce.KeyedRequests-cs.KeyedRequests)))
	m.set("cluster.hedge_win_ratio", ratio(float64(ce.HedgeWins-cs.HedgeWins), float64(hedges)))
	m.set("cluster.failovers", float64(ce.Failovers-cs.Failovers))
	m.set("cluster.breaker_skips", float64(ce.BreakerSkips-cs.BreakerSkips))
	m.set("cluster.batch_items", float64(ce.BatchItems-cs.BatchItems))
	m.set("cluster.hit_us", us(medianDur(lr.t.hit)))
	m.set("cluster.miss_us", us(medianDur(lr.t.miss)))
	rtt, err := shardRTT(ctx, lr, chainQs)
	if err != nil {
		return nil, err
	}
	m.set("cluster.shard_rtt_us", us(rtt))

	// Go runtime over the traced window.
	items := lr.t.items
	m.set("go.allocs_per_item", ratio(float64(a.heapAllocs-b.heapAllocs), float64(items)))
	m.set("go.gc_cpu_share", ratio(a.gcCPU-b.gcCPU, a.totalCPU-b.totalCPU))

	// HTTP client phases from the httptrace spans.
	m.set("http.conn_wait_us", us(medianDur(lr.tr.durations("get-conn"))))
	m.set("http.ttfb_us", us(medianDur(lr.tr.durations("wait"))))
	m.set("http.body_read_us", us(medianDur(lr.tr.durations("read"))))

	// Tracing overhead: the traced half against the untraced half.
	tracedRate := float64(items) / lr.wall.Seconds()
	m.set("trace.items_per_s_change", ratio(tracedRate, lr.plainRate)-1)
	m.set("trace.latency_p50_change", ratio(float64(clientP50), float64(lr.plainP50))-1)
	lr.tr.mu.Lock()
	m.set("trace.spans", float64(len(lr.tr.spans)))
	lr.tr.mu.Unlock()
	return m, nil
}

// splitQueries separates scheme queries from graph queries, keeping at
// most sampleQueries of each.
func splitQueries(qs []query) (chain, net []query) {
	for _, q := range qs {
		if q.kind == qNet {
			if len(net) < sampleQueries {
				net = append(net, q)
			}
		} else if len(chain) < sampleQueries {
			chain = append(chain, q)
		}
	}
	return chain, net
}

// timeEach runs fn on each query inside a span, within layerBudget, and
// returns the median duration (0 when qs is empty).
func timeEach(tr *tracer, layer string, qs []query, fn func(query)) time.Duration {
	var ds []time.Duration
	deadline := time.Now().Add(layerBudget)
	for _, q := range qs {
		if time.Now().After(deadline) {
			break
		}
		ds = append(ds, tr.time("replay "+layer, func() { fn(q) }))
	}
	return medianDur(ds)
}

// resolve is the serving path's selector resolution and key building.
func resolve(q query) {
	if q.kind == qNet {
		sel := q.graphSelector()
		if g, err := sel.Resolve(); err == nil {
			_ = serve.NetSolvableKey(g, q.f, q.h)
		}
		return
	}
	sel := q.schemeSelector()
	sch, err := sel.Resolve()
	if err != nil {
		return
	}
	if q.kind == qClassify {
		_ = serve.ClassifyKey(sch)
	} else {
		_ = serve.SolvableKey(sch, q.h, q.kind == qMin)
	}
}

// timeKeys times CanonicalSchemeKey on schemes compiled outside the span.
func timeKeys(tr *tracer, qs []query) time.Duration {
	var ds []time.Duration
	for _, q := range qs {
		sch, err := q.scheme()
		if err != nil {
			continue
		}
		ds = append(ds, tr.time("replay scheme.key", func() { _ = serve.CanonicalSchemeKey(sch) }))
	}
	return medianDur(ds)
}

// handlerReplays is how many in-process handler calls the edge replay
// aims for: enough for a p99 with ten samples beyond it.
const handlerReplays = 2000

// replayHandler sends the run's latest singles (whose verdicts are
// still cached) through h until handlerReplays calls or layerBudget,
// and returns each call's duration.
func replayHandler(tr *tracer, h http.Handler, singles []*call) []time.Duration {
	var ds []time.Duration
	deadline := time.Now().Add(layerBudget)
	for len(singles) > 0 && len(ds) < handlerReplays && time.Now().Before(deadline) {
		for _, c := range singles {
			req := httptest.NewRequest(http.MethodPost, c.path, bytes.NewReader(c.body))
			req.Header.Set("Content-Type", "application/json")
			if c.binary {
				req.Header.Set("Accept", wire.AcceptVerdict)
			}
			rec := httptest.NewRecorder()
			ds = append(ds, tr.time("replay serve.handler", func() { h.ServeHTTP(rec, req) }))
		}
	}
	return ds
}

// warmAppend replays the first node's exported verdicts into a fresh
// warm store and returns the median Append time in microseconds.
func warmAppend(ctx context.Context, lr *layerRun) (float64, error) {
	c := client.New(lr.sys.nodes[0].url, client.Options{HTTPClient: lr.ld.hc, MaxBodyBytes: 64 << 20})
	entries, _, err := c.WarmExport(ctx, 1024)
	if err != nil {
		return 0, err
	}
	store, _, err := serve.OpenVerdictStore(filepath.Join(lr.dir, "replay.store"))
	if err != nil {
		return 0, err
	}
	var ds []time.Duration
	for _, e := range entries {
		var aerr error
		ds = append(ds, lr.tr.time("replay serve.warm_append", func() { aerr = store.Append(e.K, e.V) }))
		if aerr != nil {
			store.Close()
			return 0, aerr
		}
	}
	return us(medianDur(ds)), store.Close()
}

// measureWire times the codec on verdicts the run decoded.
func measureWire(m *metricSet, tr *tracer, vals []any) {
	const reps = 64
	var enc, dec, toJSON []time.Duration
	var frameBytes, jsonBytes float64
	var buf []byte
	for _, v := range vals {
		frame, err := wire.Marshal(v)
		if err != nil {
			continue
		}
		j, err := wire.FrameToJSON(frame, "  ")
		if err != nil {
			continue
		}
		frameBytes += float64(len(frame))
		jsonBytes += float64(len(j))
		enc = append(enc, tr.time("replay wire.encode", func() {
			for i := 0; i < reps; i++ {
				buf, _ = wire.AppendVerdict(buf[:0], v)
			}
		})/reps)
		dec = append(dec, tr.time("replay wire.decode", func() {
			for i := 0; i < reps; i++ {
				_, _ = wire.Unmarshal(frame)
			}
		})/reps)
		toJSON = append(toJSON, tr.time("replay wire.frame_to_json", func() {
			for i := 0; i < reps; i++ {
				_, _ = wire.FrameToJSON(frame, "  ")
			}
		})/reps)
	}
	n := float64(len(enc))
	m.set("wire.encode_ns", float64(medianDur(enc)))
	m.set("wire.decode_ns", float64(medianDur(dec)))
	m.set("wire.frame_to_json_ns", float64(medianDur(toJSON)))
	m.set("wire.frame_bytes", ratio(frameBytes, n))
	m.set("wire.json_bytes", ratio(jsonBytes, n))
}

// engineStats folds the Observer snapshots of the engine replays.
func engineStats(m *metricSet, obs []ca.EngineStats) {
	var perRound []time.Duration
	var configs, wall, forks, absorbed float64
	var views []float64
	for _, st := range obs {
		perRound = append(perRound, time.Duration(st.WallNanos/int64(max(st.Rounds, 1))))
		configs += float64(st.Configs)
		wall += float64(st.WallNanos)
		forks += float64(st.WorkerForks)
		absorbed += float64(st.Absorbed)
		views = append(views, float64(st.ViewsInterned))
	}
	n := float64(len(obs))
	m.set("fullinfo.round_ms", ms(medianDur(perRound)))
	m.set("fullinfo.configs_per_s", ratio(configs, wall/1e9))
	m.set("fullinfo.views_interned", median(views))
	m.set("fullinfo.worker_forks", ratio(forks, n))
	m.set("fullinfo.absorbed", ratio(absorbed, n))
}

// shardRTT times client.Client.Do against the first node for a key it
// has cached: one of the run's scheme queries, primed by a first call.
func shardRTT(ctx context.Context, lr *layerRun, qs []query) (time.Duration, error) {
	q := query{kind: qFixed, base: "S1", h: 3}
	for _, c := range qs {
		if c.kind == qFixed || c.kind == qMin {
			q = c
			break
		}
	}
	c := client.New(lr.sys.nodes[0].url, client.Options{HTTPClient: lr.ld.hc, MaxAttempts: 1})
	body := q.request()
	var v wire.Solvable
	if err := c.Do(ctx, http.MethodPost, "/v1/solvable", body, &v); err != nil {
		return 0, err
	}
	var ds []time.Duration
	for i := 0; i < 200; i++ {
		var err error
		ds = append(ds, lr.tr.time("replay cluster.shard_rtt", func() { err = c.Do(ctx, http.MethodPost, "/v1/solvable", body, &v) }))
		if err != nil {
			return 0, err
		}
	}
	return medianDur(ds), nil
}

package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime/metrics"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/cluster"
)

// node is one in-process capserved server on a loopback port.
type node struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

func startNode(cfg serve.Config) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{srv: serve.New(cfg), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	n.hs = &http.Server{Handler: n.srv.Handler()}
	go func() { n.done <- n.hs.Serve(ln) }()
	return n, nil
}

func (n *node) stop() {
	_ = n.srv.Drain(n.hs) // a drain error only means requests were cut; the run is over
	<-n.done
}

// system is what one workload runs against: one node, or a coordinator
// over clusterBackends nodes.
type system struct {
	nodes     []*node
	coord     *cluster.Coordinator
	coordHS   *http.Server
	coordDone chan error
	url       string       // where the load goes
	front     http.Handler // the handler behind url, for in-process replays
}

// boot starts the workload's servers; dir holds their warm stores.
func boot(w *workload, dir string) (*system, error) {
	sys := &system{}
	count := 1
	if w.cluster {
		count = clusterBackends
	}
	for i := 0; i < count; i++ {
		cfg := serve.Config{}
		if w.warmStore {
			cfg.WarmStorePath = filepath.Join(dir, fmt.Sprintf("warm-%d.store", i))
		}
		n, err := startNode(cfg)
		if err != nil {
			sys.stop()
			return nil, err
		}
		sys.nodes = append(sys.nodes, n)
	}
	sys.url, sys.front = sys.nodes[0].url, sys.nodes[0].srv.Handler()
	if !w.cluster {
		return sys, nil
	}
	var urls []string
	for _, n := range sys.nodes {
		urls = append(urls, n.url)
	}
	c, err := cluster.New(cluster.Config{Backends: urls})
	if err != nil {
		sys.stop()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = c.Shutdown(context.Background())
		sys.stop()
		return nil, err
	}
	sys.coord, sys.coordHS, sys.coordDone = c, &http.Server{Handler: c.Handler()}, make(chan error, 1)
	go func() { sys.coordDone <- sys.coordHS.Serve(ln) }()
	sys.url, sys.front = "http://"+ln.Addr().String(), c.Handler()
	return sys, nil
}

func (s *system) stop() {
	if s.coord != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		_ = s.coordHS.Shutdown(ctx) // idle connections only; nothing is in flight
		_ = s.coord.Shutdown(ctx)
		cancel()
		<-s.coordDone
	}
	for _, n := range s.nodes {
		n.stop()
	}
}

// ready waits until every server answers /readyz.
func (s *system) ready(ctx context.Context, hc *http.Client) error {
	urls := []string{s.url}
	for _, n := range s.nodes {
		urls = append(urls, n.url)
	}
	for _, u := range urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/readyz", nil)
		if err != nil {
			return err
		}
		resp, err := hc.Do(req)
		if err != nil {
			return err
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s not ready: HTTP %d", u, resp.StatusCode)
		}
	}
	return nil
}

// warm sends each query once, as a JSON single, and requires a verdict.
func warm(ctx context.Context, d *loader, qs []query) error {
	var buf bytes.Buffer
	for _, q := range qs {
		if r := d.do(ctx, (bodies)(nil).single(q, false), time.Now(), &buf); r.err != nil {
			return fmt.Errorf("warming %s: %w", q.key(), r.err)
		}
	}
	return nil
}

// counters is one scrape of everything the servers and the runtime
// export, summed over the nodes.
type counters struct {
	node  serve.Varz
	stats serve.StatsVarz
	coord cluster.Stats
	// heapAllocs, gcCPU and totalCPU are runtime/metrics readings.
	heapAllocs      uint64
	gcCPU, totalCPU float64
}

func getJSON(h http.Handler, path string, dst any) error {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d", path, rec.Code)
	}
	return json.Unmarshal(rec.Body.Bytes(), dst)
}

// scrape reads /varz and /v1/stats of every node and the coordinator's
// /v1/stats, in process (no socket), plus the runtime's counters.
func (s *system) scrape() (counters, error) {
	var c counters
	for _, n := range s.nodes {
		var v serve.Varz
		var st serve.StatsVarz
		if err := errors.Join(getJSON(n.srv.Handler(), "/varz", &v), getJSON(n.srv.Handler(), "/v1/stats", &st)); err != nil {
			return c, err
		}
		c.node.CacheHits += v.CacheHits
		c.node.CacheMisses += v.CacheMisses
		c.node.SingleflightShared += v.SingleflightShared
		c.node.Shed += v.Shed
		c.node.Timeouts += v.Timeouts
		c.node.WarmStored += v.WarmStored
		c.stats.EngineRuns += st.EngineRuns
		c.stats.RoundsAnalyzed += st.RoundsAnalyzed
		c.stats.SymbolicRounds += st.SymbolicRounds
		c.stats.SymbolicFallbacks += st.SymbolicFallbacks
		c.stats.EngineWallNanos += st.EngineWallNanos
	}
	if s.coord != nil {
		if err := getJSON(s.coord.Handler(), "/v1/stats", &c.coord); err != nil {
			return c, err
		}
	}
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	c.heapAllocs = samples[0].Value.Uint64()
	c.gcCPU, c.totalCPU = samples[1].Value.Float64(), samples[2].Value.Float64()
	return c, nil
}

// heavyQueued is the deepest heavy admission queue of any node now.
func (s *system) heavyQueued() int64 {
	var peak int64
	for _, n := range s.nodes {
		var v serve.Varz
		if getJSON(n.srv.Handler(), "/varz", &v) == nil && v.HeavyQueued > peak {
			peak = v.HeavyQueued
		}
	}
	return peak
}

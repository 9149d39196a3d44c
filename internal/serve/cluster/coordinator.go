package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
	"repro/internal/serve/client"
	"repro/internal/serve/wire"
)

// Config parameterizes the coordinator. Only Backends is required.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:8322"; use :0 for
	// an ephemeral port, logged by ListenAndServe).
	Addr string
	// Backends are the base URLs of the capserved shards at boot, e.g.
	// "http://127.0.0.1:8321". Membership is LIVE after boot: the admin
	// surface (GET/POST/DELETE /v1/cluster/members) joins and removes
	// backends without a restart, and the health prober (ProbeInterval)
	// ejects dead shards from routing and readmits recovered ones. Each
	// membership change swaps in a new epoch-versioned ring; in-flight
	// shard calls finish on the epoch they started with (the items of
	// one batch may start on different epochs).
	Backends []string
	// Replicas is how many distinct shards a keyed request may try —
	// primary plus hedge/failover candidates (default 2, clamped per
	// epoch to the routable member count).
	Replicas int
	// HedgeDelay is how long the primary may stay silent before the
	// request is hedged to the next replica (default 250ms).
	HedgeDelay time.Duration
	// RequestTimeout bounds a whole coordinated request (default 30s).
	RequestTimeout time.Duration
	// AttemptTimeout bounds one backend attempt (default RequestTimeout).
	AttemptTimeout time.Duration
	// DrainTimeout bounds graceful shutdown (default 10s).
	DrainTimeout time.Duration
	// CacheEntries sizes the coordinator's LRU of verdicts (default
	// 4096) — its only in-memory verdict tier.
	CacheEntries int
	// WarmStorePath, when set, is the coordinator's warm store, exactly
	// as serve.Config's: verdicts are appended to a wire warm segment
	// file whose newest CacheEntries verdicts are preloaded into the LRU
	// at boot, so a restarted coordinator answers recent queries without
	// touching any backend.
	WarmStorePath string
	// BreakerThreshold / BreakerCooldown parameterize each shard's
	// circuit breaker (defaults 3 consecutive failures, 5s cooldown —
	// tighter than a single node's engine breaker because a shard has
	// replicas to absorb its traffic).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// VNodes is the virtual nodes per backend on the hash ring
	// (default 64).
	VNodes int
	// ProbeInterval is the health-probe period. Zero disables the
	// prober: breakers and hedging still mask failures, but nothing is
	// ejected from or readmitted to the ring automatically.
	ProbeInterval time.Duration
	// ProbeTimeout bounds one health probe (default min(ProbeInterval,
	// 1s)).
	ProbeTimeout time.Duration
	// ProbeFailThreshold is how many consecutive probe failures eject a
	// member from routing (default 3). The member is not forgotten: it
	// keeps being probed and readmits automatically.
	ProbeFailThreshold int
	// ProbeRecoverThreshold is how many consecutive probe successes
	// readmit an ejected member (default 2). Readmission re-closes the
	// shard's breaker.
	ProbeRecoverThreshold int
	// HTTPClient is the transport to the backends; injectable so tests
	// (and chaos campaigns) can wrap it with a fault-injecting
	// RoundTripper. Default: a dedicated client with sane pooling.
	HTTPClient *http.Client
	// Logf sinks operational log lines (default: discard).
	Logf func(format string, args ...any)
	// Clock is the time source (default time.Now); injectable for
	// deterministic breaker tests.
	Clock func() time.Time
}

func (c *Config) defaults() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8322"
	}
	if c.Replicas <= 0 {
		c.Replicas = 2
	}
	if c.HedgeDelay <= 0 {
		c.HedgeDelay = 250 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = c.RequestTimeout
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 4096
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 5 * time.Second
	}
	if c.VNodes <= 0 {
		c.VNodes = 64
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
		if c.ProbeInterval > 0 && c.ProbeInterval < c.ProbeTimeout {
			c.ProbeTimeout = c.ProbeInterval
		}
	}
	if c.ProbeFailThreshold <= 0 {
		c.ProbeFailThreshold = 3
	}
	if c.ProbeRecoverThreshold <= 0 {
		c.ProbeRecoverThreshold = 2
	}
	if c.HTTPClient == nil {
		c.HTTPClient = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
		}}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
}

// shard is one backend plus its health bookkeeping. Shard structs are
// shared by every epoch that routes to the backend, so breaker state
// and counters survive membership changes.
type shard struct {
	base      string
	brk       *serve.Breaker
	requests  atomic.Int64
	failures  atomic.Int64
	hedges    atomic.Int64 // hedged attempts sent to this shard
	hedgeWins atomic.Int64 // hedged attempts that produced the reply
}

// Coordinator is the cluster router: a serve front (serve.NewFront)
// whose compute is a hedged call to the shards of a consistent-hash
// ring. The request pipeline, the LRU with singleflight, the warm
// store, negotiation, batching and error shapes are the node's; the
// ring, hedging, per-shard breakers, the prober, membership and the
// chaos fan-out are the coordinator's. Construct with New, mount
// Handler on any http.Server, or let ListenAndServe own the lifecycle.
type Coordinator struct {
	cfg Config
	srv *serve.Server

	// Live membership: the member table (any state, guarded by memMu)
	// and the copy-on-write routing view (atomic swap on every epoch
	// change — readers never block on membership mutations).
	memMu     sync.Mutex
	members   map[string]*member
	memOrder  []string
	epochHist []epochRecord
	view      atomic.Pointer[epochView]

	// baseCtx is the coordinator lifetime: every backend attempt and
	// probe runs under it, so drain cancels in-flight work; wg
	// tracks the goroutines so drain can prove they are gone.
	baseCtx    context.Context
	cancelBase context.CancelFunc
	wg         sync.WaitGroup

	// hedgeDelayNs is the live hedge trigger, adjustable at runtime so
	// operators (and capbench) can retune hedging to a measured healthy
	// p99 without rebuilding the coordinator.
	hedgeDelayNs atomic.Int64

	m struct {
		requests       atomic.Int64 // chaos fan-outs and passthroughs
		keyed          atomic.Int64 // single keyed requests
		hedges         atomic.Int64
		hedgeWins      atomic.Int64
		failovers      atomic.Int64
		breakerSkips   atomic.Int64
		exhausted      atomic.Int64
		fanouts        atomic.Int64
		fanoutPartials atomic.Int64
		fanoutFailures atomic.Int64

		epochSwaps    atomic.Int64
		joins         atomic.Int64
		leaves        atomic.Int64
		probes        atomic.Int64
		probeFailures atomic.Int64
		ejections     atomic.Int64
		readmissions  atomic.Int64
	}
}

// newShard builds the per-backend bookkeeping for base.
func (c *Coordinator) newShard(base string) *shard {
	return &shard{
		base: base,
		brk:  serve.NewBreaker(c.cfg.BreakerThreshold, c.cfg.BreakerCooldown, c.cfg.Clock),
	}
}

// coordinatorConcurrency is the coordinator's default heavy admission
// limit (twice as many more may queue). A coordinator request waits on
// a shard instead of burning a core, so it is sized from the peak count
// of requests in flight in the cluster benchmarks, not GOMAXPROCS: 23 in
// capbench's default 200 rps mix, 18 in its batch and wire legs, 2 in
// verdictbench cluster-mixed (2-vCPU Xeon), under a third of the limit.
const coordinatorConcurrency = 64

// New builds a Coordinator over the configured backends, its admission
// gates at coordinatorConcurrency executing and twice that queued.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends configured")
	}
	cfg.defaults()
	c := &Coordinator{cfg: cfg, members: map[string]*member{}}
	now := cfg.Clock()
	for _, base := range cfg.Backends {
		base, err := normalizeBase(base)
		if err != nil {
			return nil, err
		}
		if _, dup := c.members[base]; dup {
			return nil, fmt.Errorf("cluster: duplicate backend %s", base)
		}
		c.members[base] = &member{sh: c.newShard(base), state: memberActive, joinedAt: now}
		c.memOrder = append(c.memOrder, base)
	}
	c.memMu.Lock()
	c.rebuild("boot")
	c.memMu.Unlock()
	c.srv = serve.NewFront(serve.Config{
		AnalysisConcurrency: coordinatorConcurrency,
		RequestTimeout:      cfg.RequestTimeout,
		DrainTimeout:        cfg.DrainTimeout,
		CacheEntries:        cfg.CacheEntries,
		WarmStorePath:       cfg.WarmStorePath,
		Logf:                cfg.Logf,
		Clock:               cfg.Clock,
	}, c)
	c.hedgeDelayNs.Store(int64(cfg.HedgeDelay))
	c.baseCtx, c.cancelBase = context.WithCancel(context.Background())
	c.routes()
	if cfg.ProbeInterval > 0 {
		c.wg.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

// Handler returns the fully wired HTTP handler.
func (c *Coordinator) Handler() http.Handler { return http.HandlerFunc(c.serveHTTP) }

// serveHTTP counts the single keyed requests (Stats.KeyedRequests) and
// hands every request to the pipeline's mux.
func (c *Coordinator) serveHTTP(w http.ResponseWriter, r *http.Request) {
	switch r.URL.Path {
	case serve.Classify.Path, serve.Solvable.Path, serve.NetSolvable.Path:
		c.m.keyed.Add(1)
	}
	c.srv.Handler().ServeHTTP(w, r)
}

// HedgeDelay reports the live hedge trigger.
func (c *Coordinator) HedgeDelay() time.Duration {
	return time.Duration(c.hedgeDelayNs.Load())
}

// SetHedgeDelay retunes the hedge trigger at runtime (values <= 0 are
// ignored). Hedging at roughly the measured healthy p99 keeps the extra
// load a hedge adds in the low percents while still cutting the tail.
func (c *Coordinator) SetHedgeDelay(d time.Duration) {
	if d > 0 {
		c.hedgeDelayNs.Store(int64(d))
	}
}

// ListenAndServe runs the coordinator until ctx is cancelled, then
// drains: readiness flips, the listener stops accepting, in-flight
// requests get up to DrainTimeout to finish, and Shutdown cancels and
// waits out every backend attempt and closes the warm store. Returns
// nil on a clean drained exit.
func (c *Coordinator) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", c.cfg.Addr)
	if err != nil {
		return err
	}
	c.cfg.Logf("coordinator: listening on http://%s (%d backends)", ln.Addr(), len(c.currentView().shards))

	hs := &http.Server{Handler: c.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		c.Shutdown(context.Background())
		return err
	case <-ctx.Done():
	}
	err = c.srv.Drain(hs)
	dctx, cancel := context.WithTimeout(context.Background(), c.cfg.DrainTimeout)
	defer cancel()
	if serr := c.Shutdown(dctx); err == nil {
		err = serr
	}
	if e := <-serveErr; e != nil && !errors.Is(e, http.ErrServerClosed) && err == nil {
		err = e
	}
	return err
}

// Shutdown ends the pipeline's computations (serve.Server.Close),
// cancels every in-flight backend attempt (hedges and probes included),
// waits for their goroutines under ctx, and releases idle backend
// connections. It is exposed separately so tests driving Handler
// directly can assert a leak-free drain.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	cerr := c.srv.Close()
	c.cancelBase()
	done := make(chan struct{})
	go func() { c.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
		err = cerr
	case <-ctx.Done():
		err = fmt.Errorf("coordinator: drain deadline: in-flight backend attempts did not finish")
	}
	c.cfg.HTTPClient.CloseIdleConnections()
	c.cfg.Logf("coordinator: drained (err=%v)", err)
	return err
}

// routes mounts the coordinator's own endpoints next to the pipeline's.
func (c *Coordinator) routes() {
	for pattern, h := range map[string]http.HandlerFunc{
		"GET /v1/stats":              c.handleStats,
		"GET /varz":                  c.handleStats,
		"GET /v1/cluster/members":    c.handleMembersGet,
		"POST /v1/cluster/members":   c.handleMembersPost,
		"DELETE /v1/cluster/members": c.handleMembersDelete,
		"POST /v1/index":             c.passthrough,
		"POST /v1/unindex":           c.passthrough,
		"POST /v1/chaos":             c.handleChaos,
	} {
		c.srv.Handle(pattern, h)
	}
}

// Answer is the coordinator's compute (serve.Remote): the item goes to
// its class's single endpoint on the shards its key hashes to, hedged
// and failed over, and the shard's frame (or classify's JSON) is
// decoded by the node's own Class.Decode. A shard's rejection comes
// back as a *serve.StatusError with the shard's status and message; so
// does a reply that does not decode (502).
func (c *Coordinator) Answer(ctx context.Context, cl *serve.Class, q serve.Query) (any, string, error) {
	body, err := q.Body()
	if err != nil {
		return nil, "", err
	}
	route := q.Key
	if route == "" {
		// Uncacheable class (chaos): routed by body hash.
		route = "chaos|" + string(body)
	}
	view := c.currentView()
	res, err := c.hedgedDo(ctx, cl.Path, wire.AcceptVerdict, body, view, view.ring.Replicas(route, c.cfg.Replicas))
	if err != nil {
		return nil, "", noReply(err)
	}
	if res.status >= 400 {
		msg, diag := shardError(res.body)
		return nil, res.base, &serve.StatusError{Status: res.status, Msg: msg, DiagID: diag}
	}
	v, ok := cl.Decode(res.body)
	if !ok {
		return nil, res.base, &serve.StatusError{Status: http.StatusBadGateway,
			Msg: fmt.Sprintf("shard %s returned an unusable verdict", res.base)}
	}
	return v, res.base, nil
}

// noReply is the error a hedged call that got no reply is answered
// with: deadlines stay themselves (504), a refusal by every breaker is
// already a 503, and anything else is a 502.
func noReply(err error) error {
	var se *serve.StatusError
	if errors.As(err, &se) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return err
	}
	return &serve.StatusError{Status: http.StatusBadGateway, Msg: err.Error()}
}

// shardError is the message of a shard's JSON error body ({"error",
// "diagId"}), so a forwarded rejection reads as the node wrote it; a
// body that is not one falls back to its (truncated) text.
func shardError(body []byte) (msg, diagID string) {
	var e struct {
		Error  string `json:"error"`
		DiagID string `json:"diagId"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error, e.DiagID
	}
	return truncate(bytes.TrimSpace(body), 200), ""
}

// passthrough routes a cheap, uncached endpoint (index/unindex) by body
// hash — still hedged, so a wedged shard cannot stall even the light
// path.
func (c *Coordinator) passthrough(w http.ResponseWriter, r *http.Request) {
	c.m.requests.Add(1)
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		serve.WriteError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	view := c.currentView()
	res, err := c.hedgedDo(r.Context(), r.URL.Path, "", body, view, view.ring.Replicas("light|"+string(body), c.cfg.Replicas))
	if err != nil {
		c.srv.WriteComputeError(w, noReply(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cluster-Cache", "miss")
	w.Header().Set("X-Cluster-Shard", res.base)
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// boundedCtx derives the context a coordinated request's backend work
// runs under: the caller's context bounded by RequestTimeout, and
// additionally cancelled when the coordinator drains — SIGTERM must not
// strand hedge goroutines behind a slow backend.
func (c *Coordinator) boundedCtx(rctx context.Context) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(rctx, c.cfg.RequestTimeout)
	stop := context.AfterFunc(c.baseCtx, cancel)
	return ctx, func() { stop(); cancel() }
}

// attemptResult is one backend attempt's outcome.
type attemptResult struct {
	base   string
	hedged bool // launched by the hedge timer or a failover, not first
	status int
	body   []byte
	err    error
}

// hedgedDo performs a keyed request against the candidate shards of one
// epoch view with hedging and failover:
//
//   - The first candidate whose breaker admits the call gets the
//     request (breaker-open shards are skipped — failover, not waiting).
//   - If no reply lands within HedgeDelay, the next admitted candidate
//     receives a hedged duplicate; first usable reply wins, the loser
//     is cancelled.
//   - A failed attempt (transport error or 5xx) immediately launches
//     the next candidate if none is in flight.
//   - 429 (shed) fails over without counting against the shard breaker;
//     other 4xx replies are verdicts and win like a success.
//
// Every attempt runs under the coordinator's lifetime context, so drain
// cancels stragglers; the per-call context bounds total latency.
func (c *Coordinator) hedgedDo(rctx context.Context, path, accept string, payload []byte, view *epochView, cands []int) (*attemptResult, error) {
	ctx, cancel := c.boundedCtx(rctx)
	defer cancel()

	results := make(chan attemptResult, len(cands))
	next := 0
	inFlight := 0
	launched := 0
	var lastOpen time.Duration

	// launch starts the next admitted candidate, skipping shards whose
	// breaker is open. Reports whether an attempt went out.
	launch := func(hedged bool) bool {
		for next < len(cands) {
			sh := view.shards[cands[next]]
			next++
			done, err := sh.brk.Acquire()
			if err != nil {
				var open serve.BreakerOpenError
				if errors.As(err, &open) {
					lastOpen = open.RetryAfter
				}
				c.m.breakerSkips.Add(1)
				continue
			}
			sh.requests.Add(1)
			if hedged {
				sh.hedges.Add(1)
			}
			c.wg.Add(1)
			go func() {
				defer c.wg.Done()
				res := c.attempt(ctx, sh, path, accept, payload)
				res.base, res.hedged = sh.base, hedged
				failed := res.err != nil || res.status >= 500
				if res.err != nil && ctx.Err() != nil {
					// The coordinator cancelled this attempt itself — a
					// rival reply won, the caller left, or drain fired.
					// That is not evidence the shard is unhealthy, and
					// counting it would let sustained hedging trip the
					// loser's breaker.
					failed = false
				}
				if failed {
					sh.failures.Add(1)
				}
				done(failed)
				if res.hedged && res.err == nil && res.status < 500 && res.status != http.StatusTooManyRequests {
					sh.hedgeWins.Add(1)
				}
				results <- res
			}()
			inFlight++
			launched++
			return true
		}
		return false
	}

	if !launch(false) {
		retry := max(lastOpen, time.Second)
		return nil, &serve.StatusError{Status: http.StatusServiceUnavailable,
			Msg: fmt.Sprintf("all replica breakers open; retry in %s", retry), RetryAfter: retry}
	}
	hedge := time.NewTimer(c.HedgeDelay())
	defer hedge.Stop()

	var lastFail *attemptResult
	for {
		select {
		case res := <-results:
			inFlight--
			usable := res.err == nil && res.status < 500 && res.status != http.StatusTooManyRequests
			if usable {
				if res.hedged {
					c.m.hedgeWins.Add(1)
				}
				return &res, nil
			}
			lastFail = &res
			if inFlight == 0 {
				if launch(true) {
					c.m.failovers.Add(1)
					continue
				}
				// Out of candidates: surface the most informative failure.
				c.m.exhausted.Add(1)
				if res.err != nil {
					return nil, fmt.Errorf("all %d replica attempts failed: %w", launched, res.err)
				}
				return &res, nil // forward the 5xx/429 verbatim
			}
		case <-hedge.C:
			if launch(true) {
				c.m.hedges.Add(1)
			}
		case <-ctx.Done():
			if lastFail != nil && lastFail.err == nil {
				return lastFail, nil
			}
			return nil, ctx.Err()
		}
	}
}

// attemptBodyLimit bounds one shard reply body.
const attemptBodyLimit = 8 << 20

// attempt performs a single backend POST under the attempt timeout.
// accept, when non-empty, negotiates the reply encoding with the shard.
func (c *Coordinator) attempt(ctx context.Context, sh *shard, path, accept string, payload []byte) attemptResult {
	actx, cancel := context.WithTimeout(ctx, c.cfg.AttemptTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodPost, sh.base+path, bytes.NewReader(payload))
	if err != nil {
		return attemptResult{err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	if accept != "" {
		req.Header.Set("Accept", accept)
	}
	resp, err := c.cfg.HTTPClient.Do(req)
	if err != nil {
		return attemptResult{err: err}
	}
	defer resp.Body.Close()
	buf, err := client.ReadBounded(resp.Body, attemptBodyLimit)
	if err != nil {
		var trunc *client.TruncatedError
		if errors.As(err, &trunc) {
			return attemptResult{err: fmt.Errorf("shard reply exceeds %d bytes: %w", trunc.Limit, err)}
		}
		return attemptResult{err: err}
	}
	// The result outlives the pooled buffer; clone before release.
	body := bytes.Clone(buf.Bytes())
	client.ReleaseBuffer(buf)
	return attemptResult{status: resp.StatusCode, body: body}
}

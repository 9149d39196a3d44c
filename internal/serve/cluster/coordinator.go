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
	"strings"
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
	// an ephemeral port, reported by BoundAddr).
	Addr string
	// Backends are the base URLs of the capserved shards at boot, e.g.
	// "http://127.0.0.1:8321". Membership is LIVE after boot: the admin
	// surface (GET/POST/DELETE /v1/cluster/members) joins and removes
	// backends without a restart, and the health prober (ProbeInterval)
	// ejects dead shards from routing and readmits recovered ones. Each
	// membership change swaps in a new epoch-versioned ring; in-flight
	// requests finish on the epoch they started with.
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
	// CacheEntries sizes the coordinator's LRU over raw verdict bodies
	// (default 4096) — its only in-memory verdict tier.
	CacheEntries int
	// WarmStorePath, when set, appends verdict bodies to a wire warm
	// segment file (frames; JSON for classify) whose newest CacheEntries
	// verdicts are preloaded into the LRU at boot — a restarted
	// coordinator answers recent queries without touching any backend.
	// A file that is not a segment is discarded with a log line.
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

// Coordinator is the cluster router. Construct with New, mount
// Handler on any http.Server, or let ListenAndServe own the lifecycle.
type Coordinator struct {
	cfg   Config
	mux   *http.ServeMux
	cache *serve.LRU

	// Live membership: the member table (any state, guarded by memMu)
	// and the copy-on-write routing view (atomic swap on every epoch
	// change — readers never block on membership mutations).
	memMu     sync.Mutex
	members   map[string]*member
	memOrder  []string
	epochHist []epochRecord
	view      atomic.Pointer[epochView]

	// warm is the append-only verdict store (nil without
	// WarmStorePath); warmLoaded counts the verdicts it preloaded.
	warm       *serve.VerdictStore
	warmLoaded int

	// baseCtx is the coordinator lifetime: every backend attempt and
	// probe runs under it, so drain cancels in-flight work; wg
	// tracks the goroutines so drain can prove they are gone.
	baseCtx    context.Context
	cancelBase context.CancelFunc
	wg         sync.WaitGroup

	ready    atomic.Bool
	draining atomic.Bool
	started  time.Time
	boundAdr atomic.Value // string

	// hedgeDelayNs is the live hedge trigger, adjustable at runtime so
	// operators (and capbench) can retune hedging to a measured healthy
	// p99 without rebuilding the coordinator.
	hedgeDelayNs atomic.Int64

	m struct {
		requests       atomic.Int64
		keyed          atomic.Int64
		cacheHits      atomic.Int64
		cacheMisses    atomic.Int64
		hedges         atomic.Int64
		hedgeWins      atomic.Int64
		failovers      atomic.Int64
		breakerSkips   atomic.Int64
		exhausted      atomic.Int64
		fanouts        atomic.Int64
		fanoutPartials atomic.Int64
		fanoutFailures atomic.Int64
		batches        atomic.Int64 // /v1/solve/batch requests admitted
		batchItems     atomic.Int64 // items across all admitted batches

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

// New builds a Coordinator over the configured backends.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Backends) == 0 {
		return nil, fmt.Errorf("cluster: no backends configured")
	}
	cfg.defaults()
	c := &Coordinator{
		cfg:     cfg,
		mux:     http.NewServeMux(),
		cache:   serve.NewLRU(cfg.CacheEntries),
		members: map[string]*member{},
	}
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
	if cfg.WarmStorePath != "" {
		store, recs, err := serve.OpenVerdictStore(cfg.WarmStorePath)
		if err != nil {
			cfg.Logf("coordinator: warm store disabled: %v", err)
		} else {
			if store.Discarded() {
				cfg.Logf("coordinator: warm store %s is not a warm segment; discarded it", cfg.WarmStorePath)
			}
			// Preload only what a shard could have answered today: frames
			// of another version or kind are recomputed, not replayed.
			kept, err := store.KeepNewest(recs, cfg.CacheEntries, func(k string, v []byte) bool {
				kind, _ := wire.KindForKey(k)
				return verdictOK(kind, v)
			})
			if err != nil {
				cfg.Logf("coordinator: %v", err)
			}
			for _, r := range kept {
				c.cache.Put(r.Key, r.Val)
			}
			c.warm, c.warmLoaded = store, len(kept)
		}
	}
	c.hedgeDelayNs.Store(int64(cfg.HedgeDelay))
	c.baseCtx, c.cancelBase = context.WithCancel(context.Background())
	c.started = now
	c.ready.Store(true)
	c.routes()
	if cfg.ProbeInterval > 0 {
		c.wg.Add(1)
		go c.probeLoop()
	}
	return c, nil
}

// Handler returns the fully wired HTTP handler.
func (c *Coordinator) Handler() http.Handler { return c.mux }

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

// BoundAddr reports the listener address once ListenAndServe has bound
// it ("" before that).
func (c *Coordinator) BoundAddr() string {
	if v := c.boundAdr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// ListenAndServe runs the coordinator until ctx is cancelled, then
// drains: readiness flips, the listener stops accepting, in-flight
// requests and hedge goroutines get up to DrainTimeout to finish (the
// computation context is cancelled so they finish promptly), and the
// warm store is closed. Returns nil on a clean drained exit.
func (c *Coordinator) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", c.cfg.Addr)
	if err != nil {
		return err
	}
	c.boundAdr.Store(ln.Addr().String())
	c.cfg.Logf("coordinator: listening on http://%s (%d backends)", ln.Addr(), len(c.currentView().shards))

	hs := &http.Server{Handler: c.mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		c.Shutdown(context.Background())
		return err
	case <-ctx.Done():
	}
	dctx, cancel := context.WithTimeout(context.Background(), c.cfg.DrainTimeout)
	defer cancel()
	c.draining.Store(true)
	c.ready.Store(false)
	err = hs.Shutdown(dctx)
	if serr := c.Shutdown(dctx); err == nil {
		err = serr
	}
	if e := <-serveErr; e != nil && !errors.Is(e, http.ErrServerClosed) && err == nil {
		err = e
	}
	return err
}

// Shutdown cancels every in-flight backend attempt (hedges and probes
// included), waits for their goroutines under ctx, closes the
// warm store, and releases idle backend connections. It is exposed
// separately so tests driving Handler directly can assert a leak-free
// drain.
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.draining.Store(true)
	c.ready.Store(false)
	c.cancelBase()
	done := make(chan struct{})
	go func() { c.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("coordinator: drain deadline: in-flight backend attempts did not finish")
	}
	if cerr := c.warm.Close(); cerr != nil && err == nil {
		err = cerr
	}
	c.cfg.HTTPClient.CloseIdleConnections()
	c.cfg.Logf("coordinator: drained (err=%v)", err)
	return err
}

// routes mounts the coordinator surface.
func (c *Coordinator) routes() {
	c.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	c.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		if !c.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	c.mux.HandleFunc("GET /v1/stats", c.handleStats)
	c.mux.HandleFunc("GET /varz", c.handleStats)
	c.mux.HandleFunc("GET /v1/cluster/members", c.handleMembersGet)
	c.mux.HandleFunc("POST /v1/cluster/members", c.handleMembersPost)
	c.mux.HandleFunc("DELETE /v1/cluster/members", c.handleMembersDelete)
	c.mux.HandleFunc("POST /v1/classify", c.keyed(serve.Classify))
	c.mux.HandleFunc("POST /v1/solvable", c.keyed(serve.Solvable))
	c.mux.HandleFunc("POST /v1/solve/batch", c.batchHandler(serve.Solvable))
	c.mux.HandleFunc("POST /v1/net/solvable", c.keyed(serve.NetSolvable))
	c.mux.HandleFunc("POST /v1/net/solve/batch", c.batchHandler(serve.NetSolvable))
	c.mux.HandleFunc("POST /v1/index", c.passthrough)
	c.mux.HandleFunc("POST /v1/unindex", c.passthrough)
	c.mux.HandleFunc("POST /v1/chaos", c.handleChaos)
	c.mux.HandleFunc("POST /v1/chaos/batch", c.batchHandler(serve.Chaos))
}

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func (c *Coordinator) writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// readBody slurps a bounded request body.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	return io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
}

// acceptsWire / acceptsWireStream report whether the caller negotiated
// binary verdict frames (mirroring the node's negotiation).
func acceptsWire(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), wire.MediaTypeVerdict)
}

func acceptsWireStream(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), wire.MediaTypeVerdictStream)
}

// verdictOK reports whether a shard-answered or stored body may be
// cached and served as a verdict of kind: a current-version frame of
// exactly that kind, or, for KindInvalid (classify, which has no frame
// encoding), a JSON body. Only the frame header is checked.
func verdictOK(kind wire.Kind, body []byte) bool {
	if kind == wire.KindInvalid {
		return !wire.IsFrame(body)
	}
	k, _, rest, err := wire.DecodeFrame(body)
	return err == nil && k == kind && len(rest) == 0
}

// negotiateBody renders a checked verdict body for the caller: frames
// pass through to binary callers and render as compact JSON for JSON
// callers; classify JSON bodies pass through. The returned content type
// is "" when a frame payload cannot be decoded — the caller should
// answer 502.
func negotiateBody(r *http.Request, body []byte) ([]byte, string) {
	if !wire.IsFrame(body) {
		return body, "application/json"
	}
	if acceptsWire(r) {
		return body, wire.MediaTypeVerdict
	}
	j, err := wire.FrameToJSON(body, "")
	if err != nil {
		return nil, ""
	}
	return append(j, '\n'), "application/json"
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

// stored looks key up in the coordinator's LRU, its only in-memory
// verdict tier.
func (c *Coordinator) stored(key string) (body []byte, ok bool) {
	if v, ok := c.cache.Get(key); ok {
		c.m.cacheHits.Add(1)
		return v.([]byte), true
	}
	c.m.cacheMisses.Add(1)
	return nil, false
}

// keyed builds the handler for a deterministic, cacheable class: the
// class's strict parse and canonical key (no node limits — only the
// shards know their config), the LRU in front,
// consistent-hash routing with hedging and replica failover behind. The
// routing view is captured once per request — a concurrent membership
// change swaps the epoch for later requests, never mid-request.
func (c *Coordinator) keyed(cl *serve.Class) http.HandlerFunc {
	// Shards answer in frames where the class has a frame kind, and in
	// JSON (classify) otherwise.
	accept := ""
	if cl.Kind != wire.KindInvalid {
		accept = wire.AcceptVerdict
	}
	return func(w http.ResponseWriter, r *http.Request) {
		c.m.requests.Add(1)
		c.m.keyed.Add(1)
		body, err := readBody(w, r)
		if err != nil {
			c.writeError(w, http.StatusBadRequest, "bad request: %v", err)
			return
		}
		q, err := cl.Parse(body)
		if err != nil {
			c.writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		key := q.Key
		if raw, ok := c.stored(key); ok {
			c.serveRaw(w, r, key, raw)
			return
		}

		view := c.currentView()
		res, err := c.hedgedDo(r.Context(), cl.Path, accept, body, view, view.ring.Replicas(key, c.cfg.Replicas))
		if err != nil {
			c.writeHedgeError(w, err)
			return
		}
		if res.status >= 400 {
			// Client-shaped rejection: every replica would agree, so the
			// first verdict is forwarded and nothing is cached.
			c.forward(w, r, res)
			return
		}
		if !verdictOK(cl.Kind, res.body) {
			c.writeError(w, http.StatusBadGateway, "shard %s returned an unusable verdict", res.base)
			return
		}
		c.cache.Put(key, res.body)
		c.persistWarm(key, res.body)
		c.forward(w, r, res)
	}
}

// passthrough routes a cheap, uncached endpoint (index/unindex) by body
// hash — still hedged, so a wedged shard cannot stall even the light
// path.
func (c *Coordinator) passthrough(w http.ResponseWriter, r *http.Request) {
	c.m.requests.Add(1)
	body, err := readBody(w, r)
	if err != nil {
		c.writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	view := c.currentView()
	res, err := c.hedgedDo(r.Context(), r.URL.Path, "", body, view, view.ring.Replicas("light|"+string(body), c.cfg.Replicas))
	if err != nil {
		c.writeHedgeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cluster-Cache", "miss")
	w.Header().Set("X-Cluster-Shard", res.base)
	w.WriteHeader(res.status)
	w.Write(res.body)
}

func (c *Coordinator) serveRaw(w http.ResponseWriter, r *http.Request, key string, body []byte) {
	out, ct := negotiateBody(r, body)
	if ct == "" {
		c.writeError(w, http.StatusBadGateway, "cached verdict for %s is undecodable", key)
		return
	}
	w.Header().Set("Content-Type", ct)
	w.Header().Set("X-Cluster-Cache", "hit")
	w.WriteHeader(http.StatusOK)
	w.Write(out)
}

func (c *Coordinator) forward(w http.ResponseWriter, r *http.Request, res *attemptResult) {
	body, ct := res.body, "application/json"
	if res.status < 400 {
		// Error bodies are JSON and must never be re-shaped; verdicts
		// negotiate.
		if body, ct = negotiateBody(r, res.body); ct == "" {
			c.writeError(w, http.StatusBadGateway, "shard %s returned an undecodable verdict", res.base)
			return
		}
	}
	w.Header().Set("Content-Type", ct)
	w.Header().Set("X-Cluster-Cache", "miss")
	w.Header().Set("X-Cluster-Shard", res.base)
	w.WriteHeader(res.status)
	w.Write(body)
}

// persistWarm appends a fresh shard verdict to the warm store, if any.
func (c *Coordinator) persistWarm(key string, body []byte) {
	if err := c.warm.Append(key, body); err != nil {
		c.cfg.Logf("coordinator: %v", err)
	}
}

// errAllShardsBroken reports that no candidate shard would admit the
// request (every breaker open, or the routable member set is empty).
type errAllShardsBroken struct{ retryAfter time.Duration }

func (e errAllShardsBroken) Error() string {
	return fmt.Sprintf("all replica breakers open; retry in %s", e.retryAfter)
}

func (c *Coordinator) writeHedgeError(w http.ResponseWriter, err error) {
	var broken errAllShardsBroken
	switch {
	case errors.As(err, &broken):
		w.Header().Set("Retry-After", fmt.Sprintf("%d", int((broken.retryAfter+time.Second-1)/time.Second)))
		writeJSON(w, http.StatusServiceUnavailable, apiError{Error: broken.Error()})
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		writeJSON(w, http.StatusGatewayTimeout, apiError{Error: "cluster request deadline exceeded"})
	default:
		writeJSON(w, http.StatusBadGateway, apiError{Error: err.Error()})
	}
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
		return nil, errAllShardsBroken{retryAfter: max(lastOpen, time.Second)}
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

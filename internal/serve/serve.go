// Package serve implements capserved: a resilient long-running HTTP/JSON
// analysis service over the repository's solvability surface (Theorem
// III.8 classification, bounded-round fullinfo walks, scenario
// index/unindex, network solvability, chaos campaigns).
//
// Every request flows through a hardened pipeline:
//
//	recover → metrics → admission (bounded queue, shed with 429) →
//	request memo or strict decode → LRU peek (a hit is written from
//	its stored bytes) → singleflight (waited on under the per-request
//	deadline) → [circuit breaker, in the leader] → engine
//
// Deadlines propagate as context.Context all the way into the fullinfo
// engine and the simulation kernels, so a cancelled request stops
// burning CPU within a round. The expensive analysis
// paths sit behind a consecutive-failure circuit breaker with half-open
// probes, and deterministic queries are deduplicated by singleflight and
// memoized in an LRU keyed by the canonical encoding of the compiled
// scheme automaton. SIGTERM (via the caller's context) triggers a
// graceful drain: the listener closes, readiness flips, in-flight
// requests finish under a drain deadline, and final metrics are flushed.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	coordattack "repro"
)

// lightConcurrency bounds the cheap endpoints (classify, index),
// maxProcs caps n for n-process network analyses, and maxExecutions
// caps chaos campaign sizes.
const (
	lightConcurrency = 64
	maxProcs         = 7
	maxExecutions    = 100_000
)

// Config parameterizes the service. The zero value is usable: every
// field has a production-lean default.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:8321"). Use port 0
	// to let the kernel pick; BoundAddr reports the result.
	Addr string
	// AnalysisConcurrency bounds concurrently executing expensive
	// requests (solvable/netsolve/chaos); default GOMAXPROCS.
	AnalysisConcurrency int
	// QueueDepth is how many admitted-but-waiting requests each class
	// tolerates before shedding with 429 (default 2× the class limit).
	QueueDepth int
	// RequestTimeout is the per-request deadline installed by the
	// pipeline (default 30s). Clients may ask for less via
	// "timeout_ms", never for more.
	RequestTimeout time.Duration
	// ComputeBudget bounds a singleflight leader's computation,
	// independent of any caller's deadline (default RequestTimeout).
	ComputeBudget time.Duration
	// DrainTimeout bounds the graceful-shutdown drain (default 10s).
	DrainTimeout time.Duration
	// CacheEntries sizes the LRU result cache (default 1024).
	CacheEntries int
	// WarmStorePath, when non-empty, enables the warm store: a wire warm
	// segment file of computed verdicts (frames; JSON for classify)
	// keyed by canonical automaton digest. Every fresh verdict is
	// appended to it; at boot its newest CacheEntries verdicts are
	// preloaded into the LRU, so a restarted node serves recently
	// computed answers without re-running the engine. A file that is not
	// a segment (a legacy JSON-lines store) is discarded with a log line.
	WarmStorePath string
	// BreakerThreshold is the consecutive-failure trip count (default 5).
	BreakerThreshold int
	// BreakerCooldown is how long the breaker fast-fails before probing
	// (default 10s).
	BreakerCooldown time.Duration
	// MaxHorizon caps the horizon accepted by analysis endpoints
	// (default 12) — a single request must not be able to demand an
	// astronomically deep walk.
	MaxHorizon int
	// MaxBatchItems caps the item count of one /v1/solve/batch request
	// (default 64). The whole batch holds a single heavy admission slot,
	// so this bounds how much engine work one slot can demand.
	MaxBatchItems int
	// Backend selects the analysis backend for every served engine
	// request. The zero value (BackendAuto) lets the engine pick the
	// symbolic interval walk when the scheme supports it and fall back
	// to enumeration otherwise.
	Backend coordattack.EngineBackend
	// Logf sinks operational log lines (default: discard).
	Logf func(format string, args ...any)
	// Clock is the time source (default time.Now); injectable for
	// deterministic breaker tests.
	Clock func() time.Time
}

func (c *Config) defaults() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8321"
	}
	if c.AnalysisConcurrency <= 0 {
		c.AnalysisConcurrency = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.AnalysisConcurrency
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.ComputeBudget <= 0 {
		c.ComputeBudget = c.RequestTimeout
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 10 * time.Second
	}
	if c.MaxHorizon <= 0 {
		c.MaxHorizon = 12
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 64
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
}

// metrics is the server-wide counter set surfaced by /varz. All fields
// are updated with atomics; there is no lock on the request path.
type metrics struct {
	requests   atomic.Int64
	inFlight   atomic.Int64
	ok2xx      atomic.Int64
	client4xx  atomic.Int64
	server5xx  atomic.Int64
	shed       atomic.Int64
	breakerFF  atomic.Int64 // computations the breaker refused
	timeouts   atomic.Int64
	panics     atomic.Int64
	batches    atomic.Int64 // /v1/solve/batch requests admitted
	batchItems atomic.Int64 // items across all admitted batches
}

// Server is the capserved HTTP service. Construct with New, mount
// Handler on any http.Server, or let ListenAndServe own the lifecycle
// (including graceful drain).
type Server struct {
	cfg    Config
	mux    *http.ServeMux
	m      metrics
	engine engineAgg
	cache  *resultCache
	// memos holds one request memo per class (Class.id), each as large
	// as the LRU.
	memos []requestMemo
	heavy *gate
	light *gate
	brk   *Breaker
	// warm is the append-only verdict store (nil unless WarmStorePath
	// is set and the store opened cleanly); warmLoaded counts the
	// verdicts it preloaded into the LRU at boot.
	warm       *VerdictStore
	warmLoaded int
	// remote, when set, computes every item in place of the local
	// engine (NewFront); nil on a node.
	remote Remote

	// baseCtx is the computation lifetime: singleflight leaders run
	// under it so request disconnects don't kill shared work. It is
	// cancelled only when the drain deadline expires (or drain ends).
	baseCtx    context.Context
	cancelBase context.CancelFunc

	ready    atomic.Bool
	draining atomic.Bool
	started  time.Time
	boundAdr atomic.Value // string
	diagSeq  atomic.Int64
}

// New builds a node Server from the config (zero value fine).
func New(cfg Config) *Server { return NewFront(cfg, nil) }

// Remote is the compute of a front: a server, such as the cluster
// coordinator, whose items other servers answer. It is the pipeline's
// one seam; everything else a front does is the node's code.
type Remote interface {
	// Answer computes the verdict of one resolved item under ctx and
	// names the server that answered. The verdict's cached flag is
	// false (Class.Decode). A rejection is a *StatusError.
	Answer(ctx context.Context, cl *Class, q Query) (verdict any, from string, err error)
}

// NewFront builds a Server whose items remote computes (a nil remote
// builds a node). A front has no limits or breaker of its own, computes
// up to batchFanout batch items at once, and tags keyed single replies
// with X-Cluster-Cache (and, on a miss it led, X-Cluster-Shard). It
// answers index and unindex itself, sends a chaos campaign to remote
// whole as one unkeyed item, and leaves /varz, /v1/stats and the warm
// export to its own Handle.
func NewFront(cfg Config, remote Remote) *Server {
	cfg.defaults()
	s := &Server{
		cfg:    cfg,
		mux:    http.NewServeMux(),
		cache:  newResultCache(cfg.CacheEntries),
		memos:  make([]requestMemo, nClasses),
		heavy:  newGate(cfg.AnalysisConcurrency, cfg.QueueDepth, time.Second),
		light:  newGate(lightConcurrency, 4*cfg.QueueDepth, time.Second),
		remote: remote,
	}
	for i := range s.memos {
		s.memos[i] = newRequestMemo(cfg.CacheEntries)
	}
	if remote == nil {
		s.brk = NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Clock)
	}
	s.baseCtx, s.cancelBase = context.WithCancel(context.Background())
	s.started = cfg.Clock()
	s.cache.onPanic = s.panicDiag
	s.cache.persist = s.persistVerdict
	if cfg.WarmStorePath != "" {
		s.attachWarmStore(cfg.WarmStorePath)
	}
	s.ready.Store(true)
	s.routes()
	return s
}

// panicDiag records a recovered panic — counter, log line with stack —
// and returns the fresh diagnostic ID that ties the client-facing 500
// to the server log. Shared by the recover middleware and the
// singleflight compute runner.
func (s *Server) panicDiag(where string, p any, stack []byte) string {
	s.m.panics.Add(1)
	id := fmt.Sprintf("diag-%d-%d", s.started.Unix(), s.diagSeq.Add(1))
	s.cfg.Logf("capserved: panic %s in %s: %v\n%s", id, where, p, stack)
	return id
}

// Handler returns the fully wired HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Handle mounts h on the server's mux, next to the pipeline's routes: a
// front adds the endpoints of its own role this way.
func (s *Server) Handle(pattern string, h http.Handler) { s.mux.Handle(pattern, h) }

// BoundAddr reports the listener address once ListenAndServe has bound
// it ("" before that) — the hook smoke tests use to find a :0 port.
func (s *Server) BoundAddr() string {
	if v := s.boundAdr.Load(); v != nil {
		return v.(string)
	}
	return ""
}

// ListenAndServe runs the service until ctx is cancelled, then drains:
// readiness flips to 503, the listener stops accepting, in-flight
// requests get up to DrainTimeout to finish, and final metrics are
// flushed through Logf. The returned error is nil on a clean drained
// exit.
func (s *Server) ListenAndServe(ctx context.Context) error {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return err
	}
	s.boundAdr.Store(ln.Addr().String())
	s.cfg.Logf("capserved: listening on http://%s", ln.Addr())

	hs := &http.Server{Handler: s.mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	select {
	case err := <-serveErr:
		s.cancelBase()
		return err
	case <-ctx.Done():
	}
	err = s.Drain(hs)
	if e := <-serveErr; e != nil && !errors.Is(e, http.ErrServerClosed) && err == nil {
		err = e
	}
	return err
}

// Drain performs the graceful-shutdown sequence on hs: stop advertising
// readiness, stop accepting, wait for in-flight requests under the drain
// deadline, then cancel the computation context and flush metrics. It is
// exposed separately so tests (and alternative mains) can drive it
// against their own http.Server.
func (s *Server) Drain(hs *http.Server) error {
	s.draining.Store(true)
	s.ready.Store(false)
	s.cfg.Logf("capserved: draining (deadline %s)", s.cfg.DrainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	err := hs.Shutdown(dctx)
	if cerr := s.Close(); cerr != nil {
		s.cfg.Logf("capserved: closing warm store: %v", cerr)
	}
	v := s.Varz()
	b, merr := json.Marshal(v)
	if merr != nil {
		s.cfg.Logf("capserved: drained (err=%v); final varz unmarshalable: %v", err, merr)
		return err
	}
	s.cfg.Logf("capserved: drained (err=%v) final varz: %s", err, b)
	return err
}

// Close ends the server's computations without touching a listener:
// readiness flips, the computation context is cancelled, and the warm
// store is closed (its error is returned). Drain calls it; so does a
// front that owns its listener. Close is idempotent.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.ready.Store(false)
	s.cancelBase()
	return s.warm.Close()
}

// endpoint classes for the admission pipeline.
type class int

const (
	classLight class = iota // parsing/automata work: classify, index
	classHeavy              // engine walks and campaigns
)

// StatusError is a compute error answered with its own status: another
// server's rejection (its status, message and diagnostic ID), or a
// front's finding that no server could answer. Nothing is cached for it.
type StatusError struct {
	Status int
	Msg    string
	DiagID string
	// RetryAfter, when positive, is sent as Retry-After.
	RetryAfter time.Duration
}

func (e *StatusError) Error() string { return e.Msg }

// apiError is the uniform JSON error body.
type apiError struct {
	Error  string `json:"error"`
	DiagID string `json:"diagId,omitempty"`
}

// WriteJSON encodes v into a pooled buffer and writes it as a single
// response. Encoding happens before the status line is committed; an
// encode error (only reachable with marshaler-bearing or non-finite
// payloads, which the API types avoid) degrades to a plain-text 500
// instead of an empty 200 body. Handlers with a diagnostic context use
// Server.writeOK, which logs the error under a diag ID.
func WriteJSON(w http.ResponseWriter, code int, v any) {
	jb := getJSONBuf()
	defer putJSONBuf(jb)
	if err := jb.enc.Encode(v); err != nil {
		http.Error(w, "response encoding failed", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(jb.buf.Bytes())
}

// writeOK writes v as a 200 response through the pooled encoder. On
// encode failure nothing has been written yet, so the client gets a
// well-formed diag-ID 500 tied to a server log line instead of a
// truncated or empty body.
func (s *Server) writeOK(w http.ResponseWriter, v any) {
	jb := getJSONBuf()
	defer putJSONBuf(jb)
	if err := jb.enc.Encode(v); err != nil {
		id := fmt.Sprintf("diag-%d-%d", s.started.Unix(), s.diagSeq.Add(1))
		s.cfg.Logf("capserved: response encode %s: %v", id, err)
		WriteJSON(w, http.StatusInternalServerError, apiError{
			Error:  "response encoding failed; see server log",
			DiagID: id,
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(jb.buf.Bytes())
}

// WriteError writes the uniform JSON error body with status code.
func WriteError(w http.ResponseWriter, code int, format string, args ...any) {
	WriteJSON(w, code, apiError{Error: fmt.Sprintf(format, args...)})
}

// protect wraps h in the full pipeline for the class: panic recovery,
// metrics, and admission with load shedding. The per-request deadline
// (requestTimeout, from admission on) and the circuit breaker are
// applied on the item path (startItem, finishItem, compute): they bound
// and guard the computation, not a cache hit, queueing or parsing.
func (s *Server) protect(cl class, h http.HandlerFunc) http.Handler {
	g := s.light
	if cl == classHeavy {
		g = s.heavy
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.m.requests.Add(1)
		s.m.inFlight.Add(1)
		defer s.m.inFlight.Add(-1)
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				id := s.panicDiag(r.URL.Path, p, debug.Stack())
				if !sw.wrote {
					s.m.server5xx.Add(1)
					WriteJSON(w, http.StatusInternalServerError, apiError{
						Error:  "internal error; see server log",
						DiagID: id,
					})
				}
				return
			}
			switch {
			case sw.status >= 500:
				s.m.server5xx.Add(1)
			case sw.status >= 400:
				s.m.client4xx.Add(1)
			default:
				s.m.ok2xx.Add(1)
			}
		}()

		release, err := g.acquire(r.Context())
		if err != nil {
			var shed errShed
			if errors.As(err, &shed) {
				s.m.shed.Add(1)
				sw.Header().Set("Retry-After", retryAfterSeconds(shed.RetryAfter))
				WriteJSON(sw, http.StatusTooManyRequests, apiError{Error: shed.Error()})
				return
			}
			// Caller's context expired while queued.
			s.m.timeouts.Add(1)
			WriteJSON(sw, http.StatusServiceUnavailable, apiError{Error: err.Error()})
			return
		}
		defer release()
		h(sw, r)
	})
}

// requestTimeout resolves the per-request deadline: the configured
// ceiling, lowered (never raised) by an explicit ?timeout_ms=N.
func (s *Server) requestTimeout(r *http.Request) time.Duration {
	d := s.cfg.RequestTimeout
	if r.URL.RawQuery == "" {
		// Skip Query(): it allocates a values map per call, on every
		// request of the hot path.
		return d
	}
	if ms := r.URL.Query().Get("timeout_ms"); ms != "" {
		// Strict parse: "100abc" is rejected, not truncated to 100.
		if n, err := strconv.ParseInt(ms, 10, 64); err == nil && n > 0 {
			if req := time.Duration(n) * time.Millisecond; req < d {
				d = req
			}
		}
	}
	return d
}

// retryAfterSeconds renders a duration as the integral seconds HTTP
// Retry-After wants, rounding up so clients never come back early.
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// statusWriter records the response status for the metrics middleware.
// It passes Flush through, so batch lines stream, and Unwrap for
// http.ResponseController.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wrote {
		sw.status = code
		sw.wrote = true
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if !sw.wrote {
		sw.status = http.StatusOK
		sw.wrote = true
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (sw *statusWriter) Unwrap() http.ResponseWriter { return sw.ResponseWriter }

// Varz is the /varz metrics snapshot.
type Varz struct {
	UptimeSeconds      float64 `json:"uptimeSeconds"`
	Ready              bool    `json:"ready"`
	Draining           bool    `json:"draining"`
	Requests           int64   `json:"requests"`
	InFlight           int64   `json:"inFlight"`
	Responses2xx       int64   `json:"responses2xx"`
	Responses4xx       int64   `json:"responses4xx"`
	Responses5xx       int64   `json:"responses5xx"`
	Shed               int64   `json:"shed"`
	BreakerFastFails   int64   `json:"breakerFastFails"`
	Timeouts           int64   `json:"timeouts"`
	Panics             int64   `json:"panics"`
	BatchRequests      int64   `json:"batchRequests"`
	BatchItems         int64   `json:"batchItems"`
	CacheHits          int64   `json:"cacheHits"`
	CacheMisses        int64   `json:"cacheMisses"`
	CacheEntries       int     `json:"cacheEntries"`
	WarmLoaded         int     `json:"warmLoaded"`
	WarmStored         int     `json:"warmStored"`
	SingleflightShared int64   `json:"singleflightShared"`
	BreakerState       string  `json:"breakerState"`
	BreakerFails       int     `json:"breakerConsecutiveFails"`
	HeavyInFlight      int     `json:"heavyInFlight"`
	HeavyQueued        int64   `json:"heavyQueued"`
}

// Varz is the /varz snapshot of the pipeline's counters.
func (s *Server) Varz() Varz {
	state, fails := s.brk.Snapshot()
	hi, hq := s.heavy.depth()
	return Varz{
		UptimeSeconds:      s.cfg.Clock().Sub(s.started).Seconds(),
		Ready:              s.ready.Load(),
		Draining:           s.draining.Load(),
		Requests:           s.m.requests.Load(),
		InFlight:           s.m.inFlight.Load(),
		Responses2xx:       s.m.ok2xx.Load(),
		Responses4xx:       s.m.client4xx.Load(),
		Responses5xx:       s.m.server5xx.Load(),
		Shed:               s.m.shed.Load(),
		BreakerFastFails:   s.m.breakerFF.Load(),
		Timeouts:           s.m.timeouts.Load(),
		Panics:             s.m.panics.Load(),
		BatchRequests:      s.m.batches.Load(),
		BatchItems:         s.m.batchItems.Load(),
		CacheHits:          s.cache.hits.Load(),
		CacheMisses:        s.cache.misses.Load(),
		CacheEntries:       s.cache.lru.Len(),
		WarmLoaded:         s.warmLoaded,
		WarmStored:         s.warm.Len(),
		SingleflightShared: s.cache.shared.Load(),
		BreakerState:       state,
		BreakerFails:       fails,
		HeavyInFlight:      hi,
		HeavyQueued:        hq,
	}
}

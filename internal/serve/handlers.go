package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"net/http"
	"strconv"
	"strings"
	"time"

	coordattack "repro"
	"repro/internal/chaos"
	"repro/internal/serve/wire"
)

// routes mounts every endpoint on the mux behind the pipeline. A front
// mounts its own stats and membership endpoints (NewFront).
func (s *Server) routes() {
	s.mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		fmt.Fprintln(w, "ok")
	})
	s.mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain")
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	s.mux.Handle("POST /v1/classify", s.protect(classLight, s.handleQuery(Classify)))
	s.mux.Handle("POST /v1/solvable", s.protect(classHeavy, s.handleQuery(Solvable)))
	s.mux.Handle("POST /v1/solve/batch", s.protect(classHeavy, s.handleBatch(Solvable)))
	s.mux.Handle("POST /v1/net/solvable", s.protect(classHeavy, s.handleQuery(NetSolvable)))
	s.mux.Handle("POST /v1/net/solve/batch", s.protect(classHeavy, s.handleBatch(NetSolvable)))
	s.mux.Handle("POST /v1/chaos", s.protect(classHeavy, s.handleQuery(Chaos)))
	s.mux.Handle("POST /v1/chaos/batch", s.protect(classHeavy, s.handleBatch(Chaos)))
	s.mux.Handle("POST /v1/index", s.protect(classLight, s.handleIndex))
	s.mux.Handle("POST /v1/unindex", s.protect(classLight, s.handleUnindex))
	if s.remote != nil {
		return
	}
	s.mux.HandleFunc("GET /varz", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.Varz())
	})
	s.mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, http.StatusOK, s.statsVarz())
	})
	s.mux.Handle("GET /v1/warm/export", s.protect(classLight, s.handleWarmExport))
}

// accepts reports whether the request negotiated a binary encoding:
// Accept names mediaType (wire.MediaTypeVerdict for a single verdict,
// wire.MediaTypeVerdictStream for a batch). JSON stays the default;
// clients opt in per request.
func accepts(r *http.Request, mediaType string) bool {
	return strings.Contains(r.Header.Get("Accept"), mediaType)
}

// writeVerdict writes a 200 verdict in the negotiated encoding: one
// binary frame when the caller asked for it, compact JSON otherwise. A
// verdict the codec cannot frame (classify) degrades to JSON rather
// than failing the request.
func (s *Server) writeVerdict(w http.ResponseWriter, r *http.Request, v any) {
	if !accepts(r, wire.MediaTypeVerdict) {
		s.writeOK(w, v)
		return
	}
	fb := getFrameBuf()
	defer putFrameBuf(fb)
	b, err := wire.AppendVerdict(fb.b[:0], v)
	if err != nil {
		s.writeOK(w, v)
		return
	}
	fb.b = b
	w.Header()["Content-Type"] = contentTypeFrame
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// writeHit writes a cache hit from its entry's stored bytes: the same
// status, headers and body writeVerdict gives asHit(val).
func (s *Server) writeHit(w http.ResponseWriter, r *http.Request, e *verdictEntry) {
	var b []byte
	ct := contentTypeFrame
	if accepts(r, wire.MediaTypeVerdict) {
		b = e.hitFrame()
	}
	if len(b) == 0 {
		b, ct = e.hitJSON(), contentTypeJSON
	}
	if b == nil {
		s.writeVerdict(w, r, asHit(e.val))
		return
	}
	w.Header()["Content-Type"] = ct
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b)
}

// Content-Type values of verdict replies, shared by every reply rather
// than allocated per reply (net/http only reads them).
var (
	contentTypeJSON        = []string{"application/json"}
	contentTypeFrame       = []string{wire.MediaTypeVerdict}
	contentTypeNDJSON      = []string{"application/x-ndjson"}
	contentTypeFrameStream = []string{wire.MediaTypeVerdictStream}
)

// singleBodyLimit bounds a single-item request body.
const singleBodyLimit = 1 << 20

// decode strictly reads a bounded single-item JSON body into v.
func decode(w http.ResponseWriter, r *http.Request, v any) error {
	return decodeStrict(http.MaxBytesReader(w, r.Body, singleBodyLimit), v)
}

// handleQuery is the one single-item handler of every verdict class. A
// body the memo holds a key for, whose verdict the LRU holds, is written
// from the entry's stored bytes. Any other takes a strict parse and node
// limits, then the batch item path for one item (the request deadline
// is built only when the item has to wait), and the negotiated
// encoding: a hit's stored bytes, or the verdict as it is stored. A
// reply that waited on a computation carries its Server-Timing
// (setTiming). A front's reply to a keyed item carries its
// X-Cluster-Cache tier and, on a miss this request led, the
// X-Cluster-Shard that answered.
func (s *Server) handleQuery(cl *Class) http.HandlerFunc {
	memo := &s.memos[cl.id]
	return func(w http.ResponseWriter, r *http.Request) {
		deadline := time.Now().Add(s.requestTimeout(r))
		bb := getBodyBuf()
		defer putBodyBuf(bb)
		whole := bb.read(w, r.Body, memoItemMax, singleBodyLimit)
		if whole {
			if key, ok := memo.get(bb.b); ok {
				if e, ok := s.cache.peek(key); ok {
					if s.remote != nil {
						w.Header()["X-Cluster-Cache"] = clusterHit
					}
					s.writeHit(w, r, e)
					return
				}
			}
		}
		q, err := cl.parse(bb)
		if err == nil {
			err = s.limit(q)
		}
		if err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		ctx := r.Context()
		it := s.startItem(ctx, cl, q)
		var start time.Time
		if it.call != nil || it.inline {
			start = s.cfg.Clock()
			var cancel context.CancelFunc
			ctx, cancel = context.WithDeadline(ctx, deadline)
			defer cancel()
		}
		val, err := s.finishItem(ctx, cl, q, it, nil)
		if !start.IsZero() {
			s.setTiming(w, it.shared, start)
		}
		if s.remote != nil && q.Key != "" {
			tier := clusterMiss
			if it.hit != nil {
				tier = clusterHit
			}
			w.Header()["X-Cluster-Cache"] = tier
			if err == nil && it.from != nil && *it.from != "" {
				// Set only by this request's own computation, which has
				// finished: a hit or a follower never runs its closure.
				w.Header().Set("X-Cluster-Shard", *it.from)
			}
		}
		if err != nil {
			s.WriteComputeError(w, err)
			return
		}
		if it.hit != nil {
			if whole {
				memo.put(bb.b, q.Key)
			}
			s.writeHit(w, r, it.hit)
			return
		}
		s.writeVerdict(w, r, val)
	}
}

// setTiming sets the Server-Timing header of a single reply that waited
// since start on a computation: "compute" when this request ran it,
// "shared" when it waited on another request's (a singleflight
// follower), with the wait in milliseconds to three decimals. Hits
// carry no Server-Timing, and batch lines none (their stream's headers
// go out before the items finish).
func (s *Server) setTiming(w http.ResponseWriter, shared bool, start time.Time) {
	metric := "compute;dur="
	if shared {
		metric = "shared;dur="
	}
	ms := float64(s.cfg.Clock().Sub(start)) / float64(time.Millisecond)
	w.Header()["Server-Timing"] = []string{metric + strconv.FormatFloat(ms, 'f', 3, 64)}
}

// limit applies the node's bounds to a resolved item. A front has none
// of its own: the servers behind it apply theirs.
func (s *Server) limit(q Query) error {
	if s.remote != nil {
		return nil
	}
	return q.q.limit(&s.cfg)
}

// compute is the one place an item's verdict is computed, and so the
// one place the circuit breaker is consulted. A front asks its remote;
// the light class (classify) runs without the breaker; every other
// class runs as one breaker call, settled as a failure when it errs or
// panics, but not when it was cancelled (a client gone, or a drain).
// Cache hits, rejections and singleflight followers never get here.
func (s *Server) compute(ctx context.Context, cl *Class, q Query) (v any, from string, err error) {
	if s.remote != nil {
		return s.remote.Answer(ctx, cl, q)
	}
	if cl.light {
		v, err = q.q.compute(s, ctx)
		return v, "", err
	}
	done, err := s.brk.Acquire()
	if err != nil {
		s.m.breakerFF.Add(1)
		return nil, "", err
	}
	settled := false
	defer func() {
		if !settled {
			done(true) // the computation panicked: settle before unwinding
		}
	}()
	v, err = q.q.compute(s, ctx)
	settled = true
	done(err != nil && !errors.Is(err, context.Canceled))
	return v, "", err
}

// clusterHit and clusterMiss are the X-Cluster-Cache values, shared by
// every reply rather than allocated per reply (net/http only reads them).
var clusterHit, clusterMiss = []string{"hit"}, []string{"miss"}

// SchemeSelector selects an omission scheme: a registry name or a DSL
// expression, optionally minus ultimately periodic scenarios.
type SchemeSelector struct {
	Scheme string   `json:"scheme,omitempty"`
	Expr   string   `json:"expr,omitempty"`
	Minus  []string `json:"minus,omitempty"`
}

// resolvedSchemes memoizes selector spelling → compiled scheme.
// Schemes are immutable once wrapped (see internal/scheme), so a cached
// *Scheme is safe to share across concurrent requests — and sharing it
// also reuses its lazily compiled prefix DFA. Bounded so adversarial
// unique spellings cannot grow it without limit; an evicted spelling
// just recompiles.
var resolvedSchemes = NewLRU(512)

// selectorKey is the memoization key: the selector's exact spelling.
// Distinct spellings of the same automaton get distinct entries — the
// verdict caches already canonicalize by automaton digest, this tier
// only saves re-compilation.
func (q *SchemeSelector) selectorKey() string {
	if q.Expr == "" && len(q.Minus) == 0 {
		return "n\x00" + q.Scheme
	}
	var sb strings.Builder
	sb.WriteString("n\x00")
	sb.WriteString(q.Scheme)
	sb.WriteString("\x00e\x00")
	sb.WriteString(q.Expr)
	for _, m := range q.Minus {
		sb.WriteString("\x00m\x00")
		sb.WriteString(m)
	}
	return sb.String()
}

func (q *SchemeSelector) Resolve() (*coordattack.Scheme, error) {
	key := q.selectorKey()
	if v, ok := resolvedSchemes.Get(key); ok {
		return v.(*coordattack.Scheme), nil
	}
	var sch *coordattack.Scheme
	var err error
	switch {
	case q.Expr != "":
		sch, err = coordattack.ParseScheme(q.Expr)
	case q.Scheme != "":
		sch, err = coordattack.SchemeByName(q.Scheme)
	default:
		return nil, fmt.Errorf("request needs \"scheme\" or \"expr\"")
	}
	if err != nil {
		return nil, err
	}
	if len(q.Minus) > 0 {
		scs := make([]coordattack.Scenario, len(q.Minus))
		for i, m := range q.Minus {
			if scs[i], err = coordattack.ParseScenario(m); err != nil {
				return nil, err
			}
			// MinusScenarios panics on a letter outside the scheme's
			// alphabet (a double omission removed from a Γ-scheme).
			if _, err = sch.Symbols(scs[i].Prefix()); err == nil {
				_, err = sch.Symbols(scs[i].Period())
			}
			if err != nil {
				return nil, err
			}
		}
		sch = coordattack.MinusScenarios(sch.Name()+"-custom", sch, scs...)
	}
	resolvedSchemes.Put(key, sch)
	return sch, nil
}

// CanonicalSchemeKey is the canonical cache key of a scheme: the digest of
// its compiled Büchi automaton (alphabet, start, transition table,
// accepting set), memoized on the scheme. Two requests naming the same
// automaton — "S1" versus the expression "[.w]^w | [.b]^w" compiled to an
// identical DBA, or any spelling of the same Minus — share cache entries
// and singleflight.
func CanonicalSchemeKey(sch *coordattack.Scheme) string { return sch.Digest() }

// Cache-key builders for the verdict caches, a node's and a
// coordinator's alike.

// ClassifyKey keys a classification verdict.
func ClassifyKey(sch *coordattack.Scheme) string {
	return "classify|" + CanonicalSchemeKey(sch)
}

// SolvableKey keys a bounded-round solvability verdict. Keys are built
// by concatenation (they run on every request, hits included) and must
// stay byte-identical to "solvable|%s|h=%d|min=%v": stored verdicts are
// named by them.
func SolvableKey(sch *coordattack.Scheme, horizon int, minRounds bool) string {
	return "solvable|" + CanonicalSchemeKey(sch) + "|h=" + strconv.Itoa(horizon) + "|min=" + strconv.FormatBool(minRounds)
}

// NetSolvableKey keys a network solvability verdict, byte-identical to
// "netsolve|%s|f=%d|r=%d".
func NetSolvableKey(g *coordattack.Graph, f, rounds int) string {
	return "netsolve|" + CanonicalGraphKey(g) + "|f=" + strconv.Itoa(f) + "|r=" + strconv.Itoa(rounds)
}

// GraphSelector selects a network topology by kind or explicit edge list.
type GraphSelector struct {
	Graph   string `json:"graph,omitempty"` // complete|cycle|path|grid|hypercube|barbell|theta|wheel|star|petersen|tree|custom
	N       int    `json:"n,omitempty"`
	W       int    `json:"w,omitempty"`
	H       int    `json:"h,omitempty"`
	D       int    `json:"d,omitempty"`
	K       int    `json:"k,omitempty"`
	Bridges int    `json:"bridges,omitempty"`
	Edges   string `json:"edges,omitempty"`
}

// MaxGraphVertices bounds the topology a selector may build (and
// capnet's seeded random graph). Resolve checks it before building: no
// analysis comes near it (nchain refuses instances past 26 directed
// edges), and without it one request body could demand an arbitrarily
// large allocation, or a negative one, which panics, on any tier that
// resolves it.
const MaxGraphVertices = 64

// vertices is the vertex count the selector asks for, computed without
// building the graph; -1 when a size parameter is out of range.
func (q *GraphSelector) vertices() int {
	const m = MaxGraphVertices
	in := func(x, hi int) bool { return x >= 0 && x <= hi }
	switch q.Graph {
	case "grid":
		if in(q.W, m) && in(q.H, m) {
			return q.W * q.H
		}
	case "hypercube":
		if in(q.D, 6) {
			return 1 << q.D
		}
	case "barbell":
		if in(q.K, m) {
			return 2 * q.K
		}
	case "theta":
		if in(q.Bridges, m) {
			return 2 + 2*max(q.Bridges, 2)
		}
	case "petersen":
		return 10
	case "custom":
		// ParseEdgeList sizes the graph by its largest vertex index.
		n, v := 0, -1
		for i := 0; i <= len(q.Edges); i++ {
			if i < len(q.Edges) && q.Edges[i] >= '0' && q.Edges[i] <= '9' {
				v = 10*max(v, 0) + int(q.Edges[i]-'0')
				if v >= m {
					return -1
				}
				continue
			}
			n, v = max(n, v+1), -1
		}
		return n
	default:
		if in(q.N, m) {
			return q.N
		}
	}
	return -1
}

func (q *GraphSelector) Resolve() (*coordattack.Graph, error) {
	if n := q.vertices(); n < 0 || n > MaxGraphVertices {
		return nil, fmt.Errorf("graph %q: size parameters out of range (at most %d vertices)", q.Graph, MaxGraphVertices)
	}
	switch q.Graph {
	case "complete":
		return coordattack.Complete(q.N), nil
	case "cycle":
		return coordattack.Cycle(q.N), nil
	case "path":
		return coordattack.PathGraph(q.N), nil
	case "grid":
		return coordattack.Grid(q.W, q.H), nil
	case "hypercube":
		return coordattack.Hypercube(q.D), nil
	case "barbell":
		return coordattack.Barbell(q.K, max(q.Bridges, 1)), nil
	case "theta":
		return coordattack.Theta(max(q.Bridges, 2), 3), nil
	case "wheel":
		return coordattack.Wheel(q.N), nil
	case "star":
		return coordattack.Star(q.N), nil
	case "petersen":
		return coordattack.Petersen(), nil
	case "tree":
		return coordattack.BinaryTree(q.N), nil
	case "custom":
		return coordattack.ParseEdgeList("custom", q.Edges)
	default:
		return nil, fmt.Errorf("unknown graph %q", q.Graph)
	}
}

// CanonicalGraphKey canonically encodes a topology (vertex count +
// adjacency) for the cache, independent of how the request spelled it.
func CanonicalGraphKey(g *coordattack.Graph) string {
	h := sha256.New()
	var buf [8]byte
	put := func(x int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(x)))
		h.Write(buf[:])
	}
	put(g.N())
	for v := 0; v < g.N(); v++ {
		put(-1)
		for _, u := range g.Neighbors(v) {
			put(u)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// engineRunOptions builds the per-request engine options: the
// server-wide backend selection plus a pooled scratch arena, so
// consecutive cache-miss runs reuse the engine's flat tables instead of
// reallocating them. The returned release returns the arena to the
// pool; call it only after the engine run has fully finished.
func (s *Server) engineRunOptions() (*coordattack.EngineOptions, func()) {
	scr := scratchPool.Get().(*coordattack.EngineScratch)
	eng := &coordattack.EngineOptions{Backend: s.cfg.Backend, Scratch: scr}
	return eng, func() { scratchPool.Put(scr) }
}

// computeError maps a compute-path error onto the status and body the
// single endpoint answers; a batch line carries the same.
func (s *Server) computeError(err error) (int, apiError) {
	var open BreakerOpenError
	var cp errComputePanic
	var ci errInterrupted
	var se *StatusError
	switch {
	case errors.As(err, &se):
		return se.Status, apiError{Error: se.Msg, DiagID: se.DiagID}
	case errors.As(err, &open):
		return http.StatusServiceUnavailable, apiError{Error: open.Error()}
	case errors.As(err, &cp):
		return http.StatusInternalServerError, apiError{Error: "internal error; see server log", DiagID: cp.DiagID}
	case errors.As(err, &ci):
		s.m.timeouts.Add(1)
		return http.StatusGatewayTimeout, apiError{Error: ci.Error()}
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.m.timeouts.Add(1)
		return http.StatusGatewayTimeout, apiError{Error: "analysis deadline exceeded"}
	default:
		return http.StatusInternalServerError, apiError{Error: err.Error()}
	}
}

// WriteComputeError writes computeError's answer, with Retry-After when
// the breaker is open or the error asks for one.
func (s *Server) WriteComputeError(w http.ResponseWriter, err error) {
	var open BreakerOpenError
	var se *StatusError
	if errors.As(err, &open) {
		w.Header().Set("Retry-After", retryAfterSeconds(open.RetryAfter))
	} else if errors.As(err, &se) && se.RetryAfter > 0 {
		w.Header().Set("Retry-After", retryAfterSeconds(se.RetryAfter))
	}
	code, body := s.computeError(err)
	WriteJSON(w, code, body)
}

// --- /v1/classify -----------------------------------------------------

// ClassifyResponse is the /v1/classify body, the Theorem III.8
// classification of a scheme; capsolve -json prints the same fields.
type ClassifyResponse struct {
	Scheme      string          `json:"scheme"`
	Description string          `json:"description"`
	Complete    bool            `json:"complete"`
	Solvable    *bool           `json:"solvable,omitempty"`
	Conditions  map[string]bool `json:"conditions,omitempty"`
	Witness     string          `json:"witness,omitempty"`
	Pair        []string        `json:"pair,omitempty"`
	MinRounds   *int            `json:"minRounds,omitempty"`
	Note        string          `json:"note,omitempty"`
	Cached      bool            `json:"cached,omitempty"`
}

// ClassifyVerdict shapes v, the classification of sch, and cerr, the
// error coordattack.Classify returned with it.
func ClassifyVerdict(sch *coordattack.Scheme, v *coordattack.Verdict, cerr error) ClassifyResponse {
	resp := ClassifyResponse{Scheme: sch.Name(), Description: sch.Description()}
	if cerr != nil {
		resp.Note = cerr.Error()
	}
	if v != nil {
		resp.Complete = v.Complete
		if cerr == nil {
			sv := v.Solvable
			resp.Solvable = &sv
			resp.Conditions = map[string]bool{
				"fairMissing":   v.FairMissing,
				"pairMissing":   v.PairMissing,
				"wOmegaMissing": v.WOmegaMissing,
				"bOmegaMissing": v.BOmegaMissing,
			}
			if v.HasWitness {
				resp.Witness = v.Witness.String()
			}
			if v.PairMissing {
				resp.Pair = []string{v.Pair[0].String(), v.Pair[1].String()}
			}
			if v.MinRounds != coordattack.Unbounded {
				mr := v.MinRounds
				resp.MinRounds = &mr
			}
		}
	}
	return resp
}

// --- /v1/index, /v1/unindex ------------------------------------------

type indexRequest struct {
	Word string `json:"word"`
}

type indexResponse struct {
	Word  string `json:"word"`
	Index string `json:"index"`
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	var req indexRequest
	if err := decode(w, r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	word, err := coordattack.ParseWord(req.Word)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !word.InGamma() {
		WriteError(w, http.StatusBadRequest, "index is defined over Γ words; %q contains a double omission", req.Word)
		return
	}
	s.writeOK(w, indexResponse{Word: word.String(), Index: coordattack.Index(word).String()})
}

type unindexRequest struct {
	Rounds int    `json:"rounds"`
	Index  string `json:"index"`
}

func (s *Server) handleUnindex(w http.ResponseWriter, r *http.Request) {
	var req unindexRequest
	if err := decode(w, r, &req); err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	k, ok := new(big.Int).SetString(req.Index, 10)
	if !ok {
		WriteError(w, http.StatusBadRequest, "index %q is not an integer", req.Index)
		return
	}
	word, err := coordattack.UnIndexChecked(req.Rounds, k)
	if err != nil {
		WriteError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.writeOK(w, indexResponse{Word: word.String(), Index: req.Index})
}

// --- /v1/solvable -----------------------------------------------------

// solvableResponse (and the net/chaos response types below) are
// aliases for the wire verdict structs: the JSON tags and the binary
// frame layout live together in internal/serve/wire, so the two
// encodings cannot drift apart.
type solvableResponse = wire.Solvable

// solveVerdict runs one bounded-round solvability analysis and shapes
// the verdict. The engine run borrows a pooled scratch arena.
func (s *Server) solveVerdict(ctx context.Context, sch *coordattack.Scheme, horizon int, minRounds bool) (any, error) {
	eng, release := s.engineRunOptions()
	defer release()
	resp := solvableResponse{Scheme: sch.Name(), Horizon: horizon}
	rep, err := coordattack.Analyze(ctx, coordattack.RoundsRequest{
		Scheme:      sch,
		Horizon:     horizon,
		MinRounds:   minRounds,
		VerdictOnly: minRounds,
		Observer:    s.engine.observe,
		Engine:      eng,
	})
	if err != nil {
		return nil, err
	}
	if minRounds {
		found := rep.Found
		resp.Found = &found
		resp.Solvable = found
		if found {
			resp.Horizon = rep.Rounds
		}
	} else {
		resp.Solvable = rep.Solvable
		resp.Configs = rep.Configs
		if rep.ConfigsExact != nil {
			resp.ConfigsExact = rep.ConfigsExact.String()
		}
		resp.Components = rep.Components
		resp.MixedComponents = rep.MixedComponents
	}
	return resp, nil
}

// --- /v1/net/solvable -------------------------------------------------

type netSolvableResponse = wire.NetSolvable

// netVerdict decides one network solvability question. Theorem V.1
// decides two kinds without any search: f ≥ c(G) is unsolvable at
// every horizon, and f < c(G) with rounds ≥ n−1 is solvable, because
// flooding delivers every input within n−1 rounds. Under BackendAuto
// those are answered here; the engine runs for f < c(G), rounds < n−1,
// or on every request when the node forces a backend. The body is the
// same either way. The engine run borrows a pooled scratch arena.
func (s *Server) netVerdict(ctx context.Context, g *coordattack.Graph, f, rounds int) (any, error) {
	c := g.EdgeConnectivity()
	resp := netSolvableResponse{
		Graph:            g.Name(),
		N:                g.N(),
		F:                f,
		Rounds:           rounds,
		EdgeConnectivity: c,
		TheoremV1:        f < c,
	}
	if s.cfg.Backend == coordattack.BackendAuto && (f >= c || rounds >= g.N()-1) {
		s.engine.theoremDecided.Add(1)
		resp.Solvable = f < c
		return resp, nil
	}
	eng, release := s.engineRunOptions()
	defer release()
	rep, err := coordattack.AnalyzeNet(ctx, coordattack.NetAnalysisRequest{
		Graph:       g,
		F:           f,
		Horizon:     rounds,
		VerdictOnly: true,
		Observer:    s.engine.observe,
		Engine:      eng,
	})
	if err != nil {
		return nil, err
	}
	resp.Solvable = rep.Solvable
	return resp, nil
}

// --- /v1/chaos --------------------------------------------------------

type (
	chaosViolation = wire.ChaosViolation
	chaosResponse  = wire.Chaos
)

// errInterrupted is a campaign stopped by its context: the 504 reports
// how far it got.
type errInterrupted struct {
	executions int
	err        error
}

func (e errInterrupted) Error() string {
	return fmt.Sprintf("campaign interrupted after %d executions: %v", e.executions, e.err)
}

func (e errInterrupted) Unwrap() error { return e.err }

// chaosCampaign runs one seeded campaign under ctx and shapes the
// report. A campaign its context interrupts returns errInterrupted.
func (s *Server) chaosCampaign(ctx context.Context, q *ChaosRequest) (any, error) {
	rep, err := chaos.RunCampaignCtx(ctx, chaos.Config{
		Scheme:         q.sch,
		Algo:           q.algo,
		Executions:     q.Executions,
		Seed:           q.Seed,
		MaxPrefix:      q.MaxPrefix,
		MaxRounds:      q.MaxRounds,
		CheckInvariant: !q.NoInvariant,
		NoShrink:       q.NoShrink,
		MaxViolations:  q.MaxViolations,
	})
	if err != nil {
		if rep != nil && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
			return nil, errInterrupted{executions: rep.Executions, err: err}
		}
		return nil, err
	}
	resp := chaosResponse{
		Scheme:     rep.Scheme,
		Algorithm:  rep.Algorithm,
		Seed:       rep.Seed,
		Executions: rep.Executions,
		Rounds:     rep.Rounds,
		OK:         rep.OK(),
	}
	for _, v := range rep.Violations {
		cv := chaosViolation{
			Property:  string(v.Property),
			Detail:    v.Detail,
			Scenario:  v.Scenario.String(),
			Seed:      v.Seed,
			Execution: v.Execution,
		}
		if v.Minimized {
			cv.Minimized = v.MinScenario.String()
		}
		resp.Violations = append(resp.Violations, cv)
	}
	return resp, nil
}

package serve

import (
	"context"
	"errors"
	"net/http"

	"repro/internal/serve/wire"
)

// Batch admission tier, shared by every heavy class:
//
//	POST /v1/solve/batch      — bounded-round solvability scenarios
//	POST /v1/net/solve/batch  — network solvability instances
//	POST /v1/chaos/batch      — seeded chaos campaigns
//
// N items are admitted under ONE heavy admission slot and ONE breaker
// settle, deduplicated against the LRU/warm tiers where the class is
// cacheable (and against each other — a repeated key inside the batch
// computes once), with per-item verdicts streamed the moment each
// completes: JSON lines by default, binary verdict frames when the
// caller negotiated them (Accept: application/x-capverdict-stream).
// Partial failure is encoded per item: a bad item or a failed
// computation yields {"index":i,"status":4xx/5xx,"error":...} while its
// siblings keep streaming. Chaos campaigns are uncacheable, so under an
// open breaker they fast-fail with 503 while cacheable classes still
// serve their cache/warm hits.

// batchBodyLimit bounds a batch request body; N scenarios share one
// body, so the cap is wider than the single-item 1 MiB.
const batchBodyLimit = 8 << 20

type batchRequest struct {
	Items []solvableRequest `json:"items"`
}

// batchItem is one pre-resolved unit of batch work: everything checked
// before any engine work runs.
type batchItem struct {
	badReq string // non-empty: rejected at parse/validate time
	// key is the verdict cache key; empty marks an uncacheable item
	// (chaos), which can never be served under an open breaker.
	key string
	// run computes the verdict under ctx (the detached compute context
	// for cacheable items, the request context for uncacheable ones).
	run func(ctx context.Context) (any, error)
	// finish patches serving metadata (cached/shared flags, elapsed
	// time) onto a copy of the verdict and returns a pointer for the
	// stream line.
	finish func(v any, cached, shared bool, elapsedMs int64) any
}

func (s *Server) handleSolveBatch(w http.ResponseWriter, r *http.Request) {
	var req batchRequest
	if err := decodeN(w, r, &req, batchBodyLimit); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	items, ok := s.checkBatchSize(w, len(req.Items))
	if !ok {
		return
	}
	// Resolve every item up front: invalid items become per-line 400s
	// without costing the batch any engine work.
	for i := range req.Items {
		it := &items[i]
		q := &req.Items[i]
		sch, err := q.Resolve()
		if err != nil {
			it.badReq = err.Error()
			continue
		}
		horizon := q.Horizon
		if q.MinRounds {
			horizon = q.MaxHorizon
		}
		if horizon < 0 || horizon > s.cfg.MaxHorizon {
			it.badReq = "horizon out of range"
			continue
		}
		minRounds := q.MinRounds
		it.key = SolvableKey(sch, horizon, minRounds)
		it.run = func(ctx context.Context) (any, error) {
			return s.solveVerdict(ctx, sch, horizon, minRounds)
		}
		it.finish = finishSolvable
	}
	s.runBatch(w, r, items)
}

func (s *Server) handleNetSolveBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Items []netSolvableRequest `json:"items"`
	}
	if err := decodeN(w, r, &req, batchBodyLimit); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	items, ok := s.checkBatchSize(w, len(req.Items))
	if !ok {
		return
	}
	for i := range req.Items {
		it := &items[i]
		q := &req.Items[i]
		g, badReq := s.validateNetRequest(q)
		if badReq != "" {
			it.badReq = badReq
			continue
		}
		f, rounds := q.F, q.Rounds
		it.key = NetSolvableKey(g, f, rounds)
		it.run = func(ctx context.Context) (any, error) {
			return s.netVerdict(ctx, g, f, rounds)
		}
		it.finish = finishNetSolvable
	}
	s.runBatch(w, r, items)
}

func (s *Server) handleChaosBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Items []chaosRequest `json:"items"`
	}
	if err := decodeN(w, r, &req, batchBodyLimit); err != nil {
		s.writeError(w, http.StatusBadRequest, "bad request: %v", err)
		return
	}
	items, ok := s.checkBatchSize(w, len(req.Items))
	if !ok {
		return
	}
	for i := range req.Items {
		it := &items[i]
		q := &req.Items[i]
		sch, algo, badReq := s.validateChaosRequest(q)
		if badReq != "" {
			it.badReq = badReq
			continue
		}
		// Campaigns are uncacheable (seeded randomized runs, not
		// deterministic verdicts): no key, and like the single /v1/chaos
		// endpoint they run under the request context, not the detached
		// compute budget.
		it.run = func(ctx context.Context) (any, error) {
			_, resp, err := s.chaosCampaign(ctx, sch, algo, q)
			if err != nil {
				return nil, err
			}
			return resp, nil
		}
		it.finish = finishChaos
	}
	s.runBatch(w, r, items)
}

// checkBatchSize enforces the batch item bounds and allocates the item
// table; a false return means the rejection is already written.
func (s *Server) checkBatchSize(w http.ResponseWriter, n int) ([]batchItem, bool) {
	if n == 0 {
		s.writeError(w, http.StatusBadRequest, "batch needs at least one item")
		return nil, false
	}
	if n > s.cfg.MaxBatchItems {
		s.writeError(w, http.StatusBadRequest, "batch of %d items exceeds cap %d", n, s.cfg.MaxBatchItems)
		return nil, false
	}
	return make([]batchItem, n), true
}

// Per-class finish hooks: copy the cached verdict value and patch the
// serving metadata the stream line should carry.

func finishSolvable(v any, cached, shared bool, elapsedMs int64) any {
	resp := v.(solvableResponse)
	resp.Cached, resp.Shared = cached, shared
	resp.ElapsedMs = elapsedMs
	return &resp
}

func finishNetSolvable(v any, cached, _ bool, elapsedMs int64) any {
	resp := v.(netSolvableResponse)
	resp.Cached = cached
	resp.ElapsedMs = elapsedMs
	return &resp
}

func finishChaos(v any, _, _ bool, elapsedMs int64) any {
	resp := v.(chaosResponse)
	resp.ElapsedMs = elapsedMs
	return &resp
}

// runBatch streams per-item verdicts for a pre-resolved item table
// under one admission slot (already held — the pipeline admitted this
// request) and one breaker settle.
func (s *Server) runBatch(w http.ResponseWriter, r *http.Request, items []batchItem) {
	s.m.batches.Add(1)
	s.m.batchItems.Add(int64(len(items)))

	// One breaker check admits the whole batch's engine work. With the
	// breaker open, cache and warm hits still stream; only the items
	// that would need the engine fast-fail with 503.
	done, berr := s.brk.Acquire()
	if berr != nil {
		s.m.breakerFF.Add(1)
	}
	settled := false
	defer func() {
		if done != nil && !settled {
			done(true) // unwound mid-batch (panic): settle as failure
		}
	}()

	binary := acceptsWireStream(r)
	if binary {
		w.Header().Set("Content-Type", wire.MediaTypeVerdictStream)
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	rctx := r.Context()
	engineFailed := false
	for i := range items {
		line := s.batchLine(rctx, i, &items[i], berr)
		if line.Status >= 500 && line.Verdict == nil && berr == nil && items[i].badReq == "" {
			engineFailed = true
		}
		var encErr error
		if binary {
			fb := getFrameBuf()
			var b []byte
			b, encErr = wire.AppendVerdict(fb.b[:0], &line)
			if encErr == nil {
				fb.b = b
				_, encErr = w.Write(b)
			}
			putFrameBuf(fb)
		} else {
			jb := getJSONBufCompact()
			encErr = jb.enc.Encode(line)
			if encErr == nil {
				_, encErr = w.Write(jb.buf.Bytes())
			}
			putJSONBuf(jb)
		}
		if encErr != nil {
			// Client gone or line unencodable: stop streaming. Items
			// already computed are in the cache for the retry.
			break
		}
		if flusher != nil {
			flusher.Flush()
		}
	}
	if done != nil {
		settled = true
		done(engineFailed)
	}
}

// batchLine produces the response line for one batch item: a parse
// error, a cache/warm hit, a breaker fast-fail, or a fresh computation
// through the singleflight cache (which also dedups repeats within the
// batch — the first occurrence computes, later ones hit the LRU).
func (s *Server) batchLine(rctx context.Context, i int, it *batchItem, berr error) wire.BatchLine {
	if it.badReq != "" {
		return wire.BatchLine{Index: i, Status: http.StatusBadRequest, Error: it.badReq}
	}
	start := s.cfg.Clock()
	finish := func(v any, cached, shared bool) wire.BatchLine {
		elapsed := s.cfg.Clock().Sub(start).Milliseconds()
		return wire.BatchLine{Index: i, Status: http.StatusOK, Verdict: it.finish(v, cached, shared, elapsed)}
	}
	if berr != nil {
		if it.key != "" {
			if v, ok := s.cache.peek(it.key); ok {
				return finish(v, true, false)
			}
		}
		return wire.BatchLine{Index: i, Status: http.StatusServiceUnavailable, Error: berr.Error()}
	}
	if rctx.Err() != nil {
		// The batch deadline expired: stream the remaining items as
		// timeouts instead of silently truncating the response.
		s.m.timeouts.Add(1)
		return wire.BatchLine{Index: i, Status: http.StatusGatewayTimeout, Error: "batch deadline exceeded"}
	}
	if it.key == "" {
		// Uncacheable (chaos): run directly under the request context,
		// mirroring the single-item endpoint.
		val, err := it.run(rctx)
		if err != nil {
			return s.batchErrorLine(i, err)
		}
		return finish(val, false, false)
	}
	val, cached, shared, err := s.cache.do(rctx, it.key, func() (any, error) {
		cctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.ComputeBudget)
		defer cancel()
		return it.run(cctx)
	})
	if err != nil {
		return s.batchErrorLine(i, err)
	}
	return finish(val, cached, shared)
}

// batchErrorLine maps a compute error onto the per-item status the
// single-item endpoint would have used (writeComputeError's mapping).
func (s *Server) batchErrorLine(i int, err error) wire.BatchLine {
	var cp errComputePanic
	switch {
	case errors.As(err, &cp):
		return wire.BatchLine{Index: i, Status: http.StatusInternalServerError,
			Error: "internal error; see server log", DiagID: cp.DiagID}
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.m.timeouts.Add(1)
		return wire.BatchLine{Index: i, Status: http.StatusGatewayTimeout, Error: "analysis deadline exceeded"}
	default:
		return wire.BatchLine{Index: i, Status: http.StatusInternalServerError, Error: err.Error()}
	}
}

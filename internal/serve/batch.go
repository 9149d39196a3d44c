package serve

import (
	"context"
	"net/http"
	"time"

	"repro/internal/serve/wire"
)

// Batch admission tier, shared by every heavy class:
//
//	POST /v1/solve/batch      — bounded-round solvability scenarios
//	POST /v1/net/solve/batch  — network solvability instances
//	POST /v1/chaos/batch      — seeded chaos campaigns
//
// N items are admitted under ONE heavy admission slot, deduplicated
// against the LRU where the class is cacheable (and against each other
// — a repeated key inside the batch computes once), each answered by
// the single endpoint's item path (so the breaker settles once per
// computation, never per batch, and a batch can open it part-way
// through), computed one at a time on a node and batchFanout at
// once on a front, with per-item verdicts streamed in item order (the
// lines written so far are flushed once an item has waited
// batchFlushAfter on a computation): JSON lines by default, binary
// verdict frames when the caller negotiated them
// (Accept: application/x-capverdict-stream).
// A JSON-shape error in any item (unknown field, wrong type, trailing
// data) rejects the whole batch with 400. Everything after the decode
// fails per item: an item its resolve or a node limit rejects, or a
// failed computation, yields {"index":i,"status":4xx/5xx,"error":...}
// with the single endpoint's message while its siblings keep
// streaming. Chaos campaigns are uncacheable, so under an open breaker
// they fast-fail with 503 while cacheable classes still serve their
// cache hits.

// batchFlushAfter is how long a batch item may wait on a computation
// before the lines written ahead of it are flushed. A symbolic miss
// mostly answers sooner, so a batch of them costs no flush per item,
// and no line waits longer than this behind one engine run.
const batchFlushAfter = time.Millisecond

// batchFanout is how many items of one batch a front computes at once,
// so a batch of misses takes about one remote round trip.
const batchFanout = 8

// batchBodyLimit bounds a batch request body; N scenarios share one
// body, so the cap is wider than the single-item 1 MiB.
const batchBodyLimit = 8 << 20

// handleBatch is the one batch handler of every batchable class: one
// typed strict decode of the whole body (a JSON-shape error in any item
// rejects the batch), then per-item resolve and node limits, whose
// errors become per-item 400 lines with the single endpoint's message.
func (s *Server) handleBatch(cl *Class) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout(r))
		defer cancel()
		qs, err := cl.parseBatch(http.MaxBytesReader(w, r.Body, batchBodyLimit))
		if err != nil {
			WriteError(w, http.StatusBadRequest, "%v", err)
			return
		}
		if len(qs) == 0 {
			WriteError(w, http.StatusBadRequest, "batch needs at least one item")
			return
		}
		if len(qs) > s.cfg.MaxBatchItems {
			WriteError(w, http.StatusBadRequest, "batch of %d items exceeds cap %d", len(qs), s.cfg.MaxBatchItems)
			return
		}
		for i := range qs {
			if qs[i].Err == nil {
				qs[i].Err = s.limit(qs[i])
			}
		}
		s.runBatch(ctx, w, r, cl, qs)
	}
}

// runBatch streams per-item verdicts for a parsed item table under one
// admission slot (already held — the pipeline admitted this request),
// writing the lines in item order; rctx carries the request deadline.
// Each item runs the single endpoint's item path, so the breaker sees
// one call per computation, never one per batch.
func (s *Server) runBatch(rctx context.Context, w http.ResponseWriter, r *http.Request, cl *Class, items []Query) {
	s.m.batches.Add(1)
	s.m.batchItems.Add(int64(len(items)))

	binary := accepts(r, wire.MediaTypeVerdictStream)
	if binary {
		w.Header().Set("Content-Type", wire.MediaTypeVerdictStream)
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	// pending marks lines written since the last flush. A hit never
	// waits, so a run of hits costs no flush of its own.
	pending := false
	flush := func() {
		if pending && flusher != nil {
			flusher.Flush()
			pending = false
		}
	}

	// A node starts each item when its turn comes; a front starts items
	// ahead while fewer than batchFanout of its computations are out.
	var one [1]item
	slots, ahead, out, started := one[:], 0, 0, 0
	if s.remote != nil {
		slots, ahead = make([]item, len(items)), batchFanout
	}
	for i := range items {
		for ; started < len(items) && (started <= i || out < ahead); started++ {
			slots[started%len(slots)] = s.startItem(rctx, cl, items[started])
			if slots[started%len(slots)].call != nil {
				out++
			}
		}
		it := slots[i%len(slots)]
		if it.call != nil {
			out--
		}
		line := wire.BatchLine{Index: i, Status: http.StatusOK}
		val, cached, shared, err := s.finishItem(rctx, cl, items[i], it, flush)
		if err != nil {
			var body apiError
			line.Status, body = s.computeError(err)
			line.Error, line.DiagID = body.Error, body.DiagID
		} else {
			line.Verdict = s.itemVerdict(it, val, cached, shared)
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
			jb := getJSONBuf()
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
		pending = true
	}
}

// item is one item, single or batched, between its start and its
// answer: an answer already known (a cache hit, or a rejection as a
// *StatusError), a computation to wait on, or an uncacheable item to
// compute inline when its turn comes.
type item struct {
	val    any
	cached bool
	err    error
	call   *flightCall
	shared bool
	inline bool
	start  time.Time
	// from receives the server a front's computation was answered by;
	// only this item's own singleflight leader writes it.
	from *string
}

// startItem starts one item: a resolve or limit rejection (400), a
// cache hit, an expired request deadline (504), or a computation
// through the singleflight cache (which dedups repeats within a batch
// too) under the detached compute budget. An uncacheable (chaos) item
// runs under the request context: on a node inline when its turn comes.
func (s *Server) startItem(rctx context.Context, cl *Class, q Query) item {
	if q.Err != nil {
		return item{err: &StatusError{Status: http.StatusBadRequest, Msg: q.Err.Error()}}
	}
	if q.Key != "" {
		if v, ok := s.cache.peek(q.Key); ok {
			return item{val: v, cached: true}
		}
	}
	it := item{start: s.cfg.Clock()}
	if rctx.Err() != nil {
		// The batch deadline expired: stream the remaining items as
		// timeouts instead of silently truncating the response.
		s.m.timeouts.Add(1)
		it.err = &StatusError{Status: http.StatusGatewayTimeout, Msg: "batch deadline exceeded"}
		return it
	}
	switch {
	case q.Key == "" && s.remote == nil:
		it.inline = true
	case q.Key == "":
		// An unkeyed flight: run neither shares nor caches it.
		it.call = &flightCall{done: make(chan struct{})}
		go s.cache.run("", it.call, func() (any, error) {
			v, _, err := s.compute(rctx, cl, q)
			return v, err
		})
	default:
		from := new(string)
		it.from = from
		it.val, it.call, it.shared = s.cache.start(q.Key, func() (v any, err error) {
			cctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.ComputeBudget)
			defer cancel()
			v, *from, err = s.compute(cctx, cl, q)
			return v, err
		})
		// A nil call: its computation finished since the peek above.
		it.cached = it.call == nil
	}
	return it
}

// finishItem answers an item, waiting for its computation if it has
// one; stalled (nil for a single request) flushes a batch's lines ahead
// of an item that waits on a computation.
func (s *Server) finishItem(ctx context.Context, cl *Class, q Query, it item, stalled func()) (val any, cached, shared bool, err error) {
	switch {
	case it.inline:
		if stalled != nil {
			stalled()
		}
		val, _, err = s.compute(ctx, cl, q)
	case it.call != nil:
		if err = wait(ctx, it.call.done, stalled); err == nil {
			val, err = it.call.val, it.call.err
		}
	default:
		return it.val, it.cached, false, it.err
	}
	return val, false, it.shared, err
}

// itemVerdict is an answered item's verdict carrying the serving
// metadata of this answer; a cache answered it in 0 ms.
func (s *Server) itemVerdict(it item, val any, cached, shared bool) any {
	var elapsed int64
	if !cached {
		elapsed = s.cfg.Clock().Sub(it.start).Milliseconds()
	}
	return withMeta(val, cached, shared, elapsed)
}

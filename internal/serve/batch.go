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
// N items are admitted under ONE heavy admission slot and ONE breaker
// settle, deduplicated against the LRU where the class is
// cacheable (and against each other — a repeated key inside the batch
// computes once), computed one at a time on a node and batchFanout at
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
// admission slot (already held — the pipeline admitted this request)
// and one breaker settle, writing the lines in item order; rctx carries
// the request deadline.
func (s *Server) runBatch(rctx context.Context, w http.ResponseWriter, r *http.Request, cl *Class, items []Query) {
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
	var one [1]batchItem
	slots, ahead, out, started := one[:], 0, 0, 0
	if s.remote != nil {
		slots, ahead = make([]batchItem, len(items)), batchFanout
	}
	engineFailed := false
	for i := range items {
		for ; started < len(items) && (started <= i || out < ahead); started++ {
			slots[started%len(slots)] = s.startItem(rctx, cl, started, items[started], berr)
			if slots[started%len(slots)].call != nil {
				out++
			}
		}
		it := slots[i%len(slots)]
		if it.call != nil {
			out--
		}
		line := s.finishItem(rctx, cl, i, items[i], it, flush)
		if line.Status >= 500 && line.Verdict == nil && berr == nil && items[i].Err == nil {
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
	if done != nil {
		settled = true
		done(engineFailed)
	}
}

// batchItem is one batch item between its start and its line: a line
// already known (a parse error, a hit, a fast-fail), a computation to
// wait on, or an uncacheable item to compute when its turn comes.
type batchItem struct {
	line   wire.BatchLine
	call   *flightCall
	shared bool
	inline bool
	start  time.Time
}

// startItem starts item i: a parse error, a cache hit, a breaker
// fast-fail, or a computation through the singleflight cache (which
// dedups repeats within the batch too). An uncacheable (chaos) item runs
// under the request context: on a node inline when its turn comes.
func (s *Server) startItem(rctx context.Context, cl *Class, i int, q Query, berr error) batchItem {
	if q.Err != nil {
		return batchItem{line: wire.BatchLine{Index: i, Status: http.StatusBadRequest, Error: q.Err.Error()}}
	}
	if q.Key != "" {
		if v, ok := s.cache.peek(q.Key); ok {
			// A hit is answered as it is looked up: 0 ms.
			return batchItem{line: wire.BatchLine{Index: i, Status: http.StatusOK, Verdict: withMeta(v, true, false, 0)}}
		}
	}
	it := batchItem{start: s.cfg.Clock()}
	if berr != nil {
		it.line = wire.BatchLine{Index: i, Status: http.StatusServiceUnavailable, Error: berr.Error()}
		return it
	}
	if rctx.Err() != nil {
		// The batch deadline expired: stream the remaining items as
		// timeouts instead of silently truncating the response.
		s.m.timeouts.Add(1)
		it.line = wire.BatchLine{Index: i, Status: http.StatusGatewayTimeout, Error: "batch deadline exceeded"}
		return it
	}
	switch {
	case q.Key == "" && s.remote == nil:
		it.inline = true
	case q.Key == "":
		// An unkeyed flight: run neither shares nor caches it.
		it.call = &flightCall{done: make(chan struct{})}
		go s.cache.run("", it.call, func() (any, error) { return s.compute(rctx, cl, q) })
	default:
		var v any
		v, it.call, it.shared = s.cache.start(q.Key, func() (any, error) {
			cctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.ComputeBudget)
			defer cancel()
			return s.compute(cctx, cl, q)
		})
		if it.call == nil {
			// Its computation finished since the peek above.
			it.line = s.verdictLine(i, v, true, false, it.start)
		}
	}
	return it
}

// finishItem produces item i's line, waiting for its computation if it
// has one; stalled flushes the lines ahead of an item that waits on a
// computation.
func (s *Server) finishItem(rctx context.Context, cl *Class, i int, q Query, it batchItem, stalled func()) wire.BatchLine {
	var val any
	var err error
	switch {
	case it.inline:
		stalled()
		val, err = s.compute(rctx, cl, q)
	case it.call != nil:
		if err = wait(rctx, it.call.done, stalled); err == nil {
			val, err = it.call.val, it.call.err
		}
	default:
		return it.line
	}
	if err != nil {
		code, body := s.computeError(err)
		return wire.BatchLine{Index: i, Status: code, Error: body.Error, DiagID: body.DiagID}
	}
	return s.verdictLine(i, val, false, it.shared, it.start)
}

// verdictLine is item i's 200 line, its verdict carrying the serving
// metadata of this answer.
func (s *Server) verdictLine(i int, v any, cached, shared bool, start time.Time) wire.BatchLine {
	elapsed := s.cfg.Clock().Sub(start).Milliseconds()
	return wire.BatchLine{Index: i, Status: http.StatusOK, Verdict: withMeta(v, cached, shared, elapsed)}
}
